package gnutella

import (
	"bytes"
	"errors"
	"testing"
)

func TestRegisterRoundTrip(t *testing.T) {
	in := &Register{
		ID:      GUID{1, 2, 3},
		Flags:   RegisterBye,
		Epoch:   1<<40 + 17,
		In:      1<<50 + 3,
		Out:     386,
		Clients: 65535,
	}
	buf, err := in.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if got := len(buf) + FrameOverhead; got != in.WireSize() {
		t.Errorf("encoded %d+framing bytes, WireSize %d", len(buf), in.WireSize())
	}
	out, err := DecodeRegister(buf)
	if err != nil {
		t.Fatalf("DecodeRegister: %v", err)
	}
	if *out != *in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestDecodeRegisterRejectsDamage(t *testing.T) {
	valid, err := (&Register{Epoch: 5}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"wrong type", func(b []byte) []byte { b[16] = byte(TypePing); return b }},
		{"bad flags", func(b []byte) []byte { b[23] = 7; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-2] }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }},
		{"short payload claim", func(b []byte) []byte { b[19] = 2; return b }},
	}
	for _, tc := range cases {
		buf := append([]byte(nil), valid...)
		buf = tc.mut(buf)
		if tc.name == "truncated" || tc.name == "trailing bytes" {
			// length field must track the mutation so only the structural
			// damage is under test
			putPayloadLen(buf, len(buf)-DescriptorHeaderLen)
		}
		if _, err := DecodeRegister(buf); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: err %v, want ErrBadMessage", tc.name, err)
		}
	}
	if _, err := DecodeRegister(valid[:10]); !errors.Is(err, ErrShortMessage) {
		t.Errorf("short buffer: err %v, want ErrShortMessage", err)
	}
}

func TestDirectiveRoundTrip(t *testing.T) {
	in := &Directive{
		ID:         GUID{4, 5},
		Epoch:      99,
		Action:     ActionPromotePartner,
		TTL:        5,
		MaxClients: 250,
	}
	buf, err := in.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if got := len(buf) + FrameOverhead; got != in.WireSize() {
		t.Errorf("encoded %d+framing bytes, WireSize %d", len(buf), in.WireSize())
	}
	out, err := DecodeDirective(buf)
	if err != nil {
		t.Fatalf("DecodeDirective: %v", err)
	}
	if *out != *in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestDecodeDirectiveRejectsDamage(t *testing.T) {
	valid, err := (&Directive{Epoch: 1, Action: ActionSplitCluster, TTL: 3}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"wrong type", func(b []byte) []byte { b[16] = byte(TypeQuery); return b }},
		{"zero action", func(b []byte) []byte { b[31] = 0; return b }},
		{"unknown action", func(b []byte) []byte { b[31] = 9; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0, 0) }},
		{"relayed ttl", func(b []byte) []byte { b[17] = 5; return b }},
		{"relayed hops", func(b []byte) []byte { b[18] = 1; return b }},
	}
	for _, tc := range cases {
		buf := append([]byte(nil), valid...)
		buf = tc.mut(buf)
		if tc.name == "truncated" || tc.name == "trailing bytes" {
			putPayloadLen(buf, len(buf)-DescriptorHeaderLen)
		}
		if _, err := DecodeDirective(buf); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: err %v, want ErrBadMessage", tc.name, err)
		}
	}
}

func TestDirectiveActionString(t *testing.T) {
	for a, want := range map[DirectiveAction]string{
		ActionPromotePartner: "promote-partner",
		ActionSplitCluster:   "split-cluster",
		ActionCoalesce:       "coalesce",
		DirectiveAction(9):   "DirectiveAction(9)",
	} {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", a, got, want)
		}
	}
}

func TestPollRoundTrip(t *testing.T) {
	in := &Poll{ID: GUID{8}}
	buf, err := in.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if got := len(buf) + FrameOverhead; got != in.WireSize() {
		t.Errorf("encoded %d+framing bytes, WireSize %d", len(buf), in.WireSize())
	}
	out, err := DecodePoll(buf)
	if err != nil {
		t.Fatalf("DecodePoll: %v", err)
	}
	if *out != *in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestDecodePollRejectsDamage(t *testing.T) {
	valid, err := (&Poll{ID: GUID{9}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"wrong type", func(b []byte) []byte { b[16] = byte(TypePing); return b }},
		{"trailing bytes", func(b []byte) []byte { b = append(b, 0); putPayloadLen(b, 1); return b }},
		{"payload claim", func(b []byte) []byte { putPayloadLen(b, 1); return b }},
	}
	for _, tc := range cases {
		if _, err := DecodePoll(tc.mut(append([]byte(nil), valid...))); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: err %v, want ErrBadMessage", tc.name, err)
		}
	}
}

// TestControlFramesOverStream checks the control frames flow through the
// generic stream reader/writer like every other message type.
func TestControlFramesOverStream(t *testing.T) {
	msgs := []Message{
		&Register{ID: GUID{1}, Epoch: 3},
		&Directive{ID: GUID{2}, Epoch: 4, Action: ActionCoalesce, MaxClients: 50},
		&Poll{ID: GUID{3}},
	}
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("WriteMessage(%T): %v", m, err)
		}
	}
	for _, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("ReadMessage: %v", err)
		}
		switch w := want.(type) {
		case *Register:
			if g, ok := got.(*Register); !ok || *g != *w {
				t.Errorf("got %+v, want %+v", got, w)
			}
		case *Directive:
			if g, ok := got.(*Directive); !ok || *g != *w {
				t.Errorf("got %+v, want %+v", got, w)
			}
		case *Poll:
			if g, ok := got.(*Poll); !ok || *g != *w {
				t.Errorf("got %+v, want %+v", got, w)
			}
		}
	}
}

// TestSingleHopFramesRejectRelayedHeaders: the eight frame types without TTL
// or hops fields are encoded at TTL 1, hops 0, and their decoders accept
// nothing else.
func TestSingleHopFramesRejectRelayedHeaders(t *testing.T) {
	msgs := []Message{
		&Join{ID: GUID{1}, Files: []MetadataRecord{{FileIndex: 1, Title: "a.mp3"}}},
		&Update{ID: GUID{2}, Op: OpInsert, File: MetadataRecord{FileIndex: 2}},
		&Register{ID: GUID{3}, Epoch: 3},
		&Directive{ID: GUID{4}, Epoch: 4, Action: ActionCoalesce, MaxClients: 50},
		&Poll{ID: GUID{5}},
		&ChunkRequest{ID: GUID{6}, FileIndex: 3, Chunk: 1},
		&ChunkData{ID: GUID{7}, FileIndex: 3, Chunk: 1, TotalChunks: 2, Data: []byte("xy")},
		&ChunkNack{ID: GUID{8}, FileIndex: 3, Chunk: 9, Code: NackNotFound},
	}
	for _, m := range msgs {
		valid, err := m.appendFrame(nil)
		if err != nil {
			t.Fatalf("encoding %T: %v", m, err)
		}
		decode := frames[m.Type()].decode
		if _, err := decode(valid); err != nil {
			t.Fatalf("%v as encoded: %v", m.Type(), err)
		}
		for _, tc := range []struct {
			field string
			off   int
			value byte
		}{{"ttl", 17, 2}, {"hops", 18, 1}} {
			buf := append([]byte(nil), valid...)
			buf[tc.off] = tc.value
			if _, err := decode(buf); !errors.Is(err, ErrBadMessage) {
				t.Errorf("%v with %s %d: err %v, want ErrBadMessage", m.Type(), tc.field, tc.value, err)
			}
		}
	}
}

// putPayloadLen rewrites the little-endian payload-length field of an encoded
// frame so deliberate truncation tests exercise body checks, not the header
// length check.
func putPayloadLen(buf []byte, n int) {
	buf[19] = byte(n)
	buf[20] = byte(n >> 8)
	buf[21] = byte(n >> 16)
	buf[22] = byte(n >> 24)
}
