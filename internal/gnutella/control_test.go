package gnutella

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestRegisterRoundTrip(t *testing.T) {
	in := &Register{
		ID:        GUID{1, 2, 3},
		Flags:     RegisterBye,
		Epoch:     1<<40 + 17,
		NodeID:    "sp-2-1",
		Addr:      "127.0.0.1:7001",
		Telemetry: "127.0.0.1:9001",
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

func TestRegisterEmptyFields(t *testing.T) {
	in := &Register{ID: GUID{9}}
	buf, err := in.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := DecodeRegister(buf)
	if err != nil {
		t.Fatalf("DecodeRegister: %v", err)
	}
	if *out != *in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestRegisterRejectsOversizeField(t *testing.T) {
	in := &Register{Addr: strings.Repeat("x", 256)}
	if _, err := in.Encode(); !errors.Is(err, ErrBadMessage) {
		t.Errorf("oversize field: err %v, want ErrBadMessage", err)
	}
}

func TestDecodeRegisterRejectsDamage(t *testing.T) {
	valid, err := (&Register{NodeID: "sp-0-0", Addr: "a:1", Telemetry: "t:2", Epoch: 5}).Encode()
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
		{"field overrun", func(b []byte) []byte { b[32] = 200; return b }},
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
		Target:     "127.0.0.1:7002",
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
	valid, err := (&Directive{Epoch: 1, Action: ActionSetTTL, TTL: 3}).Encode()
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
		{"target overrun", func(b []byte) []byte { b[35] = 50; return b }},
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
		ActionSetTTL:         "set-ttl",
		DirectiveAction(9):   "DirectiveAction(9)",
	} {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", a, got, want)
		}
	}
}

func TestDirectiveAckRoundTrip(t *testing.T) {
	in := &DirectiveAck{ID: GUID{8}, Epoch: 7, Applied: 1, NodeID: "sp-1-0"}
	buf, err := in.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if got := len(buf) + FrameOverhead; got != in.WireSize() {
		t.Errorf("encoded %d+framing bytes, WireSize %d", len(buf), in.WireSize())
	}
	out, err := DecodeDirectiveAck(buf)
	if err != nil {
		t.Fatalf("DecodeDirectiveAck: %v", err)
	}
	if *out != *in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestDecodeDirectiveAckRejectsDamage(t *testing.T) {
	valid, err := (&DirectiveAck{Epoch: 7, Applied: 0, NodeID: "sp-1-0"}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"wrong type", func(b []byte) []byte { b[16] = byte(TypeBusy); return b }},
		{"bad applied flag", func(b []byte) []byte { b[31] = 2; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 1) }},
		{"node id overrun", func(b []byte) []byte { b[32] = 99; return b }},
	}
	for _, tc := range cases {
		buf := append([]byte(nil), valid...)
		buf = tc.mut(buf)
		if tc.name == "truncated" || tc.name == "trailing bytes" {
			putPayloadLen(buf, len(buf)-DescriptorHeaderLen)
		}
		if _, err := DecodeDirectiveAck(buf); !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: err %v, want ErrBadMessage", tc.name, err)
		}
	}
}

// TestControlFramesOverStream checks the control frames flow through the
// generic stream reader/writer like every other message type.
func TestControlFramesOverStream(t *testing.T) {
	msgs := []Message{
		&Register{ID: GUID{1}, Epoch: 3, NodeID: "sp-0-0", Addr: "a:1", Telemetry: "t:1"},
		&Directive{ID: GUID{2}, Epoch: 4, Action: ActionCoalesce, MaxClients: 50},
		&DirectiveAck{ID: GUID{3}, Epoch: 4, Applied: 1, NodeID: "sp-0-0"},
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
		case *DirectiveAck:
			if g, ok := got.(*DirectiveAck); !ok || *g != *w {
				t.Errorf("got %+v, want %+v", got, w)
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
