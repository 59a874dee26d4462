package metrics

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"spnet/internal/faults"
)

// validExposition renders a realistic node scrape: a NodeMetrics registry
// with traffic observed across several load classes, exactly what the fleet
// controller parses in production.
func validExposition(t testing.TB) []byte {
	t.Helper()
	nm := NewNodeMetrics()
	nm.Load.Observe(ClassQuery, DirIn, 412)
	nm.Load.Observe(ClassQuery, DirOut, 1024)
	nm.Load.Observe(ClassResponse, DirOut, 96)
	nm.Load.Observe(ClassJoin, DirIn, 300)
	nm.ConnBytes[DirIn].Add(2048)
	var buf bytes.Buffer
	if err := nm.Registry().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.Bytes()
}

// sink adapts a bytes.Buffer to net.Conn so the fault injector's write path
// can mangle an exposition the way a damaged transport would.
type sink struct{ bytes.Buffer }

func (*sink) Read([]byte) (int, error)         { return 0, io.EOF }
func (*sink) Close() error                     { return nil }
func (*sink) LocalAddr() net.Addr              { return nil }
func (*sink) RemoteAddr() net.Addr             { return nil }
func (*sink) SetDeadline(time.Time) error      { return nil }
func (*sink) SetReadDeadline(time.Time) error  { return nil }
func (*sink) SetWriteDeadline(time.Time) error { return nil }

// corruptedExpositions pushes the valid exposition through a faults.Corrupt
// (and truncate) write rule line by line, harvesting damaged scrapes.
func corruptedExpositions(t testing.TB, seed uint64, rule faults.Rule) [][]byte {
	t.Helper()
	ctrl := faults.NewController(seed)
	ctrl.SetRule("scraped", rule)
	valid := validExposition(t)
	var out [][]byte
	for _, line := range strings.SplitAfter(string(valid), "\n") {
		if line == "" {
			continue
		}
		var buf sink
		fc := ctrl.Wrap("scraped", &buf)
		fc.Write([]byte(line)) // error expected for truncating rules
		if buf.Len() > 0 {
			out = append(out, append([]byte(nil), buf.Bytes()...))
		}
	}
	return out
}

// FuzzParsePrometheus hammers the exposition parser with arbitrary bytes —
// the bytes a controller reads off a possibly-damaged telemetry socket. The
// contract: never panic, and every rejection is typed (wraps
// ErrBadExposition), so scrapers can tell corrupt payloads from transport
// errors.
func FuzzParsePrometheus(f *testing.F) {
	f.Add(string(validExposition(f)))
	for _, b := range corruptedExpositions(f, 3, faults.Rule{CorruptProb: 1}) {
		f.Add(string(b))
	}
	for _, b := range corruptedExpositions(f, 4, faults.Rule{TruncateProb: 1}) {
		f.Add(string(b))
	}
	f.Add("# comment only\n\n")
	f.Add(`m{a="1",b="2"} 3`)
	f.Add(`m{a="1} 3`)
	f.Add(`m{a="\n\""} NaN`)
	f.Add("m 1e309")
	f.Add("m{} inf\nm -inf")

	f.Fuzz(func(t *testing.T, data string) {
		got, err := ParsePrometheus(strings.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadExposition) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		// Whatever parsed must be canonical: re-parsing the keys must be a
		// fixed point (labels sorted, escapes normalized).
		for k, v := range got {
			var line strings.Builder
			line.WriteString(k)
			line.WriteByte(' ')
			line.WriteString(fmtFloat(v))
			again, err := ParsePrometheus(strings.NewReader(line.String()))
			if err != nil {
				t.Fatalf("canonical key %q does not re-parse: %v", k, err)
			}
			if len(again) != 1 {
				t.Fatalf("canonical key %q re-parsed to %d series", k, len(again))
			}
		}
	})
}

// TestParsePrometheusTypedErrors pins the error contract ParsePrometheus
// documents: every malformed-input failure wraps ErrBadExposition.
func TestParsePrometheusTypedErrors(t *testing.T) {
	bad := []string{
		"just_a_name_no_value",
		"m not-a-number",
		`m{a="1" 3`,
		`m{noquote=1} 3`,
		`m{a="unterminated 3`,
	}
	for _, in := range bad {
		if _, err := ParsePrometheus(strings.NewReader(in)); !errors.Is(err, ErrBadExposition) {
			t.Errorf("ParsePrometheus(%q) error = %v, want ErrBadExposition", in, err)
		}
	}
	// I/O failures are NOT exposition errors: the transport error surfaces
	// unwrapped so scrapers can tell the two apart.
	if _, err := ParsePrometheus(failingReader{}); errors.Is(err, ErrBadExposition) {
		t.Error("transport error misclassified as bad exposition")
	} else if err == nil {
		t.Error("transport error swallowed")
	}

	// The round trip: a real registry's output parses clean.
	got, err := ParsePrometheus(bytes.NewReader(validExposition(t)))
	if err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	key := SeriesKey(MetricMessageBytes, Label{"type", ClassQuery.String()}, Label{"dir", DirIn.String()})
	if got[key] != 412 {
		t.Errorf("%s = %v, want 412", key, got[key])
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("socket closed") }
