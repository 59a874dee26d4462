package metrics

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"spnet/internal/stats"
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

// damagedExpositions cuts each line of the valid exposition to its first
// half and, separately, flips one byte of each line, harvesting damaged
// scrapes. Each flip takes three draws from one stream seeded by seed: a
// Float64 it discards, then the position, then a non-zero XOR mask. The
// discarded draw keeps the corpus byte-identical to the one this seed has
// always produced.
func damagedExpositions(t testing.TB, seed uint64) (truncated, corrupted []string) {
	t.Helper()
	rng := stats.NewRNG(seed)
	for _, line := range strings.SplitAfter(string(validExposition(t)), "\n") {
		if line == "" {
			continue
		}
		if n := len(line) / 2; n > 0 {
			truncated = append(truncated, line[:n])
		}
		rng.Float64()
		d := []byte(line)
		d[rng.Uint64()%uint64(len(d))] ^= byte(1 + rng.Uint64()%255)
		corrupted = append(corrupted, string(d))
	}
	return truncated, corrupted
}

// FuzzParsePrometheus hammers the exposition parser with arbitrary bytes —
// the bytes a controller reads off a possibly-damaged telemetry socket. The
// contract: never panic, and every rejection is typed (wraps
// ErrBadExposition), so scrapers can tell corrupt payloads from transport
// errors.
func FuzzParsePrometheus(f *testing.F) {
	f.Add(string(validExposition(f)))
	truncated, corrupted := damagedExpositions(f, 3)
	for _, s := range corrupted {
		f.Add(s)
	}
	for _, s := range truncated {
		f.Add(s)
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
