package gnutella

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestSizeFormulas(t *testing.T) {
	// The bandwidth column of the paper's Table 2.
	if got := QuerySize(12); got != 94 {
		t.Errorf("QuerySize(12) = %d, want 94 (the paper's average query)", got)
	}
	if got := QuerySize(0); got != 82 {
		t.Errorf("QuerySize(0) = %d, want 82", got)
	}
	if got := ResponseSize(0, 0); got != 80 {
		t.Errorf("ResponseSize(0,0) = %d, want 80", got)
	}
	if got := ResponseSize(2, 3); got != 80+2*28+3*76 {
		t.Errorf("ResponseSize(2,3) = %d, want %d", got, 80+2*28+3*76)
	}
	if got := JoinSize(0); got != 80 {
		t.Errorf("JoinSize(0) = %d, want 80", got)
	}
	if got := JoinSize(10); got != 80+720 {
		t.Errorf("JoinSize(10) = %d, want 800", got)
	}
	if got := UpdateSize(); got != 152 {
		t.Errorf("UpdateSize() = %d, want 152", got)
	}
	// Control frames: framing + header + a 27-, 12- and 0-byte payload.
	if got := RegisterSize(); got != 106 {
		t.Errorf("RegisterSize() = %d, want 106 (56+23+27)", got)
	}
	if got := DirectiveSize(); got != 56+23+12 {
		t.Errorf("DirectiveSize() = %d, want %d", got, 56+23+12)
	}
	if got := PollSize(); got != 79 {
		t.Errorf("PollSize() = %d, want 79 (56+23)", got)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	q := &Query{TTL: 7, Hops: 2, MinSpeed: 56, Text: "free music"}
	q.ID[0], q.ID[15] = 0xaa, 0xbb
	buf := q.Encode()
	got, err := DecodeQuery(buf)
	if err != nil {
		t.Fatalf("DecodeQuery: %v", err)
	}
	if *got != *q {
		t.Errorf("round trip: got %+v, want %+v", got, q)
	}
	// Encoded size + framing must match the cost model's size formula.
	if len(buf)+FrameOverhead != q.WireSize() {
		t.Errorf("encoded %d + frame %d != WireSize %d", len(buf), FrameOverhead, q.WireSize())
	}
}

func TestQueryRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(id [16]byte, ttl, hops uint8, speed uint16, text string) bool {
		if strings.ContainsRune(text, 0) || len(text) > 200 {
			return true // NUL-terminated wire format excludes embedded NULs
		}
		q := &Query{ID: GUID(id), TTL: ttl, Hops: hops, MinSpeed: speed, Text: text}
		got, err := DecodeQuery(q.Encode())
		return err == nil && *got == *q
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestQueryHitRoundTrip(t *testing.T) {
	qh := &QueryHit{
		TTL:  5,
		Hops: 1,
		Responders: []ResponderRecord{
			{IP: [4]byte{10, 0, 0, 1}, Port: 6346, Speed: 56, ResultCount: 2},
			{IP: [4]byte{10, 0, 0, 2}, Port: 6347, Speed: 1000, ResultCount: 1},
		},
		Results: []ResultRecord{
			{FileIndex: 1, FileSize: 3_000_000, AddrRef: 0, Title: "song-a.mp3"},
			{FileIndex: 2, FileSize: 4_000_000, AddrRef: 0, Title: "song-b.mp3"},
			{FileIndex: 9, FileSize: 5_000_000, AddrRef: 1, Title: "song-c.mp3"},
		},
	}
	buf, err := qh.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeQueryHit(buf)
	if err != nil {
		t.Fatalf("DecodeQueryHit: %v", err)
	}
	if len(got.Responders) != 2 || len(got.Results) != 3 {
		t.Fatalf("got %d responders, %d results", len(got.Responders), len(got.Results))
	}
	if got.Responders[1] != qh.Responders[1] {
		t.Errorf("responder mismatch: %+v vs %+v", got.Responders[1], qh.Responders[1])
	}
	if got.Results[2] != qh.Results[2] {
		t.Errorf("result mismatch: %+v vs %+v", got.Results[2], qh.Results[2])
	}
	if len(buf)+FrameOverhead != qh.WireSize() {
		t.Errorf("encoded %d + frame != WireSize %d", len(buf), qh.WireSize())
	}
	if qh.WireSize() != ResponseSize(2, 3) {
		t.Errorf("WireSize %d != ResponseSize %d", qh.WireSize(), ResponseSize(2, 3))
	}
}

func TestQueryHitEmptySized(t *testing.T) {
	qh := &QueryHit{}
	buf, err := qh.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf)+FrameOverhead != 80 {
		t.Errorf("empty hit wire size = %d, want 80", len(buf)+FrameOverhead)
	}
}

func TestQueryHitTooManyResponders(t *testing.T) {
	qh := &QueryHit{Responders: make([]ResponderRecord, 256)}
	if _, err := qh.Encode(); err == nil {
		t.Error("256 responders accepted")
	}
}

func TestQueryHitRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(nAddr, nRes uint8, seed uint32) bool {
		qh := &QueryHit{
			Responders: make([]ResponderRecord, int(nAddr)%20),
			Results:    make([]ResultRecord, int(nRes)%20),
		}
		for i := range qh.Responders {
			qh.Responders[i].Port = uint16(seed) + uint16(i)
		}
		for i := range qh.Results {
			qh.Results[i].FileIndex = seed + uint32(i)
			qh.Results[i].Title = "t"
		}
		buf, err := qh.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeQueryHit(buf)
		if err != nil {
			return false
		}
		return len(got.Responders) == len(qh.Responders) &&
			len(got.Results) == len(qh.Results) &&
			got.WireSize() == qh.WireSize()
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestJoinRoundTrip(t *testing.T) {
	j := &Join{Files: []MetadataRecord{
		{FileIndex: 1, FileSize: 100, Title: "a"},
		{FileIndex: 2, FileSize: 200, Title: "b"},
	}}
	buf := j.Encode()
	got, err := DecodeJoin(buf)
	if err != nil {
		t.Fatalf("DecodeJoin: %v", err)
	}
	if len(got.Files) != 2 || got.Files[0] != j.Files[0] || got.Files[1] != j.Files[1] {
		t.Errorf("round trip mismatch: %+v", got.Files)
	}
	if len(buf)+FrameOverhead != JoinSize(2) {
		t.Errorf("join wire size = %d, want %d", len(buf)+FrameOverhead, JoinSize(2))
	}
}

func TestJoinEmptyCollection(t *testing.T) {
	j := &Join{} // free rider with zero files still joins
	got, err := DecodeJoin(j.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Files) != 0 {
		t.Errorf("got %d files", len(got.Files))
	}
	if j.WireSize() != 80 {
		t.Errorf("WireSize = %d, want 80", j.WireSize())
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	for _, op := range []UpdateOp{OpInsert, OpDelete, OpModify} {
		u := &Update{Op: op, File: MetadataRecord{FileIndex: 7, FileSize: 9, Title: "x.mp3"}}
		buf := u.Encode()
		got, err := DecodeUpdate(buf)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if got.Op != op || got.File != u.File {
			t.Errorf("op %d round trip: %+v", op, got)
		}
		if len(buf)+FrameOverhead != 152 {
			t.Errorf("update wire size = %d, want 152", len(buf)+FrameOverhead)
		}
	}
}

func TestDecodeRejectsWrongType(t *testing.T) {
	q := (&Query{Text: "x"}).Encode()
	if _, err := DecodeJoin(q); !errors.Is(err, ErrBadMessage) {
		t.Errorf("DecodeJoin(query) err = %v, want ErrBadMessage", err)
	}
	if _, err := DecodeQueryHit(q); !errors.Is(err, ErrBadMessage) {
		t.Errorf("DecodeQueryHit(query) err = %v, want ErrBadMessage", err)
	}
	j := (&Join{}).Encode()
	if _, err := DecodeQuery(j); !errors.Is(err, ErrBadMessage) {
		t.Errorf("DecodeQuery(join) err = %v, want ErrBadMessage", err)
	}
	if _, err := DecodeUpdate(j); !errors.Is(err, ErrBadMessage) {
		t.Errorf("DecodeUpdate(join) err = %v, want ErrBadMessage", err)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	q := (&Query{Text: "hello"}).Encode()
	for _, n := range []int{0, 10, 22, len(q) - 1} {
		if _, err := DecodeQuery(q[:n]); err == nil {
			t.Errorf("truncated to %d bytes accepted", n)
		}
	}
}

func TestDecodeRejectsCorruptPayloadLen(t *testing.T) {
	q := (&Query{Text: "hello"}).Encode()
	q[19] = 0xff // corrupt payload length
	if _, err := DecodeQuery(q); !errors.Is(err, ErrBadMessage) {
		t.Errorf("corrupt payload length: err = %v", err)
	}
}

func TestDecodeRejectsBadResponderCount(t *testing.T) {
	qh := &QueryHit{Results: make([]ResultRecord, 1)}
	buf, err := qh.Encode()
	if err != nil {
		t.Fatal(err)
	}
	buf[23] = 200 // claim 200 responders that are not present
	if _, err := DecodeQueryHit(buf); !errors.Is(err, ErrBadMessage) {
		t.Errorf("bad responder count: err = %v", err)
	}
}

func TestDecodeRejectsBadUpdateOp(t *testing.T) {
	u := &Update{Op: OpInsert}
	buf := u.Encode()
	buf[23] = 99
	if _, err := DecodeUpdate(buf); !errors.Is(err, ErrBadMessage) {
		t.Errorf("bad op: err = %v", err)
	}
}

func TestTitleTruncation(t *testing.T) {
	long := strings.Repeat("x", 300)
	u := &Update{Op: OpInsert, File: MetadataRecord{Title: long}}
	got, err := DecodeUpdate(u.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.File.Title) != metadataTitleLen {
		t.Errorf("title length %d, want %d", len(got.File.Title), metadataTitleLen)
	}
}

func TestPingPongRoundTrip(t *testing.T) {
	p := &Ping{TTL: 1, Hops: 0}
	p.ID[3] = 0xcc
	got, err := DecodePing(p.Encode())
	if err != nil {
		t.Fatalf("DecodePing: %v", err)
	}
	if *got != *p {
		t.Errorf("ping round trip: got %+v, want %+v", got, p)
	}
	if len(p.Encode())+FrameOverhead != p.WireSize() || p.WireSize() != PingLen {
		t.Errorf("ping WireSize %d, want %d", p.WireSize(), PingLen)
	}

	q := &Pong{TTL: 1, Hops: 2}
	q.ID[7] = 0xdd
	gotPong, err := DecodePong(q.Encode())
	if err != nil {
		t.Fatalf("DecodePong: %v", err)
	}
	if *gotPong != *q {
		t.Errorf("pong round trip: got %+v, want %+v", gotPong, q)
	}

	// Stream framing: pings and pongs interleave with other traffic.
	var buf bytes.Buffer
	for _, m := range []Message{p, &Query{TTL: 3, Text: "x"}, q} {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("WriteMessage(%T): %v", m, err)
		}
	}
	if m, err := ReadMessage(&buf); err != nil {
		t.Fatalf("ReadMessage: %v", err)
	} else if _, ok := m.(*Ping); !ok {
		t.Errorf("first message %T, want *Ping", m)
	}
	if _, err := ReadMessage(&buf); err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	if m, err := ReadMessage(&buf); err != nil {
		t.Fatalf("ReadMessage: %v", err)
	} else if _, ok := m.(*Pong); !ok {
		t.Errorf("third message %T, want *Pong", m)
	}
}

func TestPingRejectsPayload(t *testing.T) {
	p := &Ping{}
	buf := p.Encode()
	buf[19] = 4 // claim a 4-byte payload
	if _, err := DecodePing(append(buf, 0, 0, 0, 0)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("ping with payload: err = %v, want ErrBadMessage", err)
	}
	if _, err := DecodePong((&Ping{}).Encode()); !errors.Is(err, ErrBadMessage) {
		t.Errorf("DecodePong of a ping: err = %v, want ErrBadMessage", err)
	}
}

func TestMsgTypeString(t *testing.T) {
	for typ, want := range map[MsgType]string{
		TypePing: "Ping", TypePong: "Pong",
		TypeQuery: "Query", TypeQueryHit: "QueryHit",
		TypeJoin: "Join", TypeUpdate: "Update", MsgType(0x42): "MsgType(0x42)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("String(%#x) = %q, want %q", byte(typ), got, want)
		}
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	s := &Summary{TTL: 1, Hops: 2, Terms: []string{"free", "jazz", "miles"}}
	s.ID[5] = 0xab
	buf, err := s.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeSummary(buf)
	if err != nil {
		t.Fatalf("DecodeSummary: %v", err)
	}
	if got.ID != s.ID || got.TTL != s.TTL || got.Hops != s.Hops {
		t.Errorf("header round trip: got %+v, want %+v", got, s)
	}
	if len(got.Terms) != len(s.Terms) {
		t.Fatalf("terms: got %v, want %v", got.Terms, s.Terms)
	}
	for i := range s.Terms {
		if got.Terms[i] != s.Terms[i] {
			t.Errorf("term %d: got %q, want %q", i, got.Terms[i], s.Terms[i])
		}
	}
	wantSize := SummarySize(3, len("free")+len("jazz")+len("miles"))
	if s.WireSize() != wantSize || len(buf)+FrameOverhead != wantSize {
		t.Errorf("WireSize %d (encoded %d+%d), want %d", s.WireSize(), len(buf), FrameOverhead, wantSize)
	}

	// Empty summaries (a neighbor with nothing reachable) are legal.
	empty := &Summary{}
	buf, err = empty.Encode()
	if err != nil {
		t.Fatalf("Encode empty: %v", err)
	}
	if got, err = DecodeSummary(buf); err != nil {
		t.Fatalf("DecodeSummary empty: %v", err)
	} else if len(got.Terms) != 0 {
		t.Errorf("empty summary decoded %v", got.Terms)
	}

	// Stream framing.
	var sb bytes.Buffer
	if err := WriteMessage(&sb, s); err != nil {
		t.Fatalf("WriteMessage: %v", err)
	}
	if m, err := ReadMessage(&sb); err != nil {
		t.Fatalf("ReadMessage: %v", err)
	} else if _, ok := m.(*Summary); !ok {
		t.Errorf("stream message %T, want *Summary", m)
	}
}

func TestSummaryRejectsMalformed(t *testing.T) {
	s := &Summary{Terms: []string{"abc"}}
	buf, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Claim more terms than the payload holds.
	buf[23] = 9
	if _, err := DecodeSummary(buf); !errors.Is(err, ErrBadMessage) {
		t.Errorf("truncated summary: err = %v, want ErrBadMessage", err)
	}
	// Trailing bytes after the declared terms.
	buf[23] = 0
	if _, err := DecodeSummary(buf); !errors.Is(err, ErrBadMessage) {
		t.Errorf("trailing bytes: err = %v, want ErrBadMessage", err)
	}
	// Oversized term.
	long := &Summary{Terms: []string{string(make([]byte, 256))}}
	if _, err := long.Encode(); !errors.Is(err, ErrBadMessage) {
		t.Errorf("256-byte term: err = %v, want ErrBadMessage", err)
	}
}
