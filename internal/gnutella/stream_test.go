package gnutella

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestStreamRoundTripMixed(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&Query{TTL: 7, Text: "free jazz"},
		&Join{Files: []MetadataRecord{{FileIndex: 1, Title: "a.mp3"}}},
		&QueryHit{
			Responders: []ResponderRecord{{Port: 6346, ResultCount: 1}},
			Results:    []ResultRecord{{FileIndex: 1, Title: "a.mp3"}},
		},
		&Update{Op: OpDelete, File: MetadataRecord{FileIndex: 9}},
		&Query{TTL: 1, Text: ""},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("WriteMessage(%T): %v", m, err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("ReadMessage #%d: %v", i, err)
		}
		switch w := want.(type) {
		case *Query:
			g, ok := got.(*Query)
			if !ok || g.Text != w.Text || g.TTL != w.TTL {
				t.Errorf("#%d: got %#v, want %#v", i, got, want)
			}
		case *Join:
			g, ok := got.(*Join)
			if !ok || len(g.Files) != len(w.Files) {
				t.Errorf("#%d: got %#v", i, got)
			}
		case *QueryHit:
			g, ok := got.(*QueryHit)
			if !ok || len(g.Results) != len(w.Results) || len(g.Responders) != len(w.Responders) {
				t.Errorf("#%d: got %#v", i, got)
			}
		case *Update:
			g, ok := got.(*Update)
			if !ok || g.Op != w.Op {
				t.Errorf("#%d: got %#v", i, got)
			}
		}
	}
	if _, err := ReadMessage(&buf); err != io.EOF {
		t.Errorf("end of stream: err = %v, want io.EOF", err)
	}
}

func TestReadMessageTruncatedMidPayload(t *testing.T) {
	full := (&Query{Text: "hello world"}).Encode()
	r := bytes.NewReader(full[:len(full)-3])
	if _, err := ReadMessage(r); err != io.ErrUnexpectedEOF {
		t.Errorf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestReadMessageHugePayloadRejected(t *testing.T) {
	q := (&Query{Text: "x"}).Encode()
	q[19] = 0xff
	q[20] = 0xff
	q[21] = 0xff
	q[22] = 0x7f // absurd payload length
	if _, err := ReadMessage(bytes.NewReader(q)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("err = %v, want ErrBadMessage", err)
	}
}

func TestReadMessageUnknownType(t *testing.T) {
	q := (&Query{Text: "x"}).Encode()
	q[16] = 0x42
	if _, err := ReadMessage(bytes.NewReader(q)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("err = %v, want ErrBadMessage", err)
	}
}

// TestFrameTableComplete walks the frame table, so a new frame type is held
// to all of this by adding its row: the type has a real name, a fuzz seed in
// seedMessages that carries it, survives WriteMessage→ReadMessage unchanged,
// and is metered under its row's load class without allocating.
func TestFrameTableComplete(t *testing.T) {
	seeds := make(map[MsgType]Message)
	for _, m := range seedMessages(t) {
		seeds[m.Type()] = m
	}
	rows := 0
	for i := range frames {
		typ, row := MsgType(i), &frames[i]
		if row.name == "" {
			if row.decode != nil {
				t.Errorf("type 0x%02x has a decoder but no name", i)
			}
			continue
		}
		rows++
		if got := typ.String(); got != row.name || strings.HasPrefix(got, "MsgType(") {
			t.Errorf("type 0x%02x String() = %q, want %q", i, got, row.name)
		}
		m, ok := seeds[typ]
		if !ok {
			t.Errorf("%v has no fuzz seed in seedMessages", typ)
			continue
		}
		back, err := ReadMessage(bytes.NewReader(encodeMsg(t, m)))
		if err != nil {
			t.Errorf("%v round trip: %v", typ, err)
			continue
		}
		if !reflect.DeepEqual(back, m) {
			t.Errorf("%v round trip = %+v, want %+v", typ, back, m)
		}
		if got := MessageClass(back); got != row.class {
			t.Errorf("MessageClass(%v) = %v, want %v", typ, got, row.class)
		}
		if allocs := testing.AllocsPerRun(100, func() { MessageClass(back) }); allocs != 0 {
			t.Errorf("MessageClass(%v) allocates %.0f times", typ, allocs)
		}
	}
	if len(seeds) != rows {
		t.Errorf("%d seeded types for %d table rows", len(seeds), rows)
	}
}
