// Package metrics is a dependency-free metrics layer for the super-peer
// stack: atomic counters, gauges and fixed-bucket histograms collected in a
// Registry that renders Prometheus text format.
//
// The package exists to make the paper's load model measurable: every byte
// and message a node sends or receives is attributed to the Table 2 load
// taxonomy {query, response, join, update, busy, ping} × {in, out} (see
// LoadMeter, and ByClass, the same cells the simulator and the analytical
// model fill), so a live node's load reads in the model's own units.
//
// All hot-path update operations (Counter.Add, FloatCounter.Add, Gauge.Set,
// Histogram.Observe, LoadMeter.Observe, MeteredConn.Read/Write) are
// allocation-free and safe for concurrent use.
package metrics

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float metric, used for
// fractional quantities such as Table 2 processing units.
type FloatCounter struct{ bits atomic.Uint64 }

// Add adds v.
func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Value returns the current sum.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an integer metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Label is one name="value" pair attached to a series.
type Label struct{ Name, Value string }

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

type series struct {
	labels []Label // sorted by label name
	value  func() float64
	hist   *Histogram
}

type family struct {
	name   string
	help   string
	kind   kind
	series []*series
	byKey  map[string]bool
}

// Registry collects metric families and renders them deterministically: the
// output order is registration order for families and series alike, so two
// runs that register the same metrics produce byte-identical exposition.
type Registry struct {
	mu     sync.Mutex
	order  []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(name, help string, k kind, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, byKey: make(map[string]bool)}
		r.byName[name] = f
		r.order = append(r.order, f)
	} else if f.kind != k {
		panic(fmt.Sprintf("metrics: %s registered as %v and %v", name, f.kind, k))
	}
	key := renderLabels(s.labels)
	if f.byKey[key] {
		panic(fmt.Sprintf("metrics: duplicate series %s%s", name, key))
	}
	f.byKey[key] = true
	f.series = append(f.series, s)
}

// Unregister removes the series registered under name with these labels, if
// there is one; the other series keep their order. A family left with no
// series goes too, so the exposition reads as if the series had never been
// registered.
func (r *Registry) Unregister(name string, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	key := renderLabels(sortLabels(labels))
	if f == nil || !f.byKey[key] {
		return
	}
	delete(f.byKey, key)
	f.series = slices.DeleteFunc(f.series, func(s *series) bool { return renderLabels(s.labels) == key })
	if len(f.series) == 0 {
		delete(r.byName, name)
		r.order = slices.DeleteFunc(r.order, func(g *family) bool { return g == f })
	}
}

func sortLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	return ls
}

// Counter creates and registers a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := new(Counter)
	r.CounterFunc(name, help, func() float64 { return float64(c.Value()) }, labels...)
	return c
}

// FloatCounter creates and registers a float-valued counter.
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	c := new(FloatCounter)
	r.CounterFunc(name, help, c.Value, labels...)
	return c
}

// CounterFunc registers a counter whose value is read from fn, for metrics
// whose storage lives elsewhere (e.g. a LoadMeter cell).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindCounter, &series{labels: sortLabels(labels), value: fn})
}

// Gauge creates and registers a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := new(Gauge)
	r.GaugeFunc(name, help, func() float64 { return float64(g.Value()) }, labels...)
	return g
}

// GaugeFunc registers a gauge whose value is read from fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, &series{labels: sortLabels(labels), value: fn})
}

// Histogram creates and registers a fixed-bucket histogram with the given
// upper bounds (which must be strictly increasing; a +Inf bucket is implied).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	h := NewHistogram(bounds)
	r.register(name, help, kindHistogram, &series{labels: sortLabels(labels), hist: h})
	return h
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// renderLabels renders a sorted label set as {a="1",b="2"}, or "" when empty.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// SeriesKey returns the canonical "name{labels}" key a series appears under
// in ParsePrometheus output (labels sorted by name).
func SeriesKey(name string, labels ...Label) string {
	return name + renderLabels(sortLabels(labels))
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.order {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if s.hist != nil {
				if err := writePromHistogram(w, f.name, s); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels), fmtFloat(s.value())); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, s *series) error {
	snap := s.hist.Snapshot()
	cum := uint64(0)
	for i, n := range snap.Counts {
		cum += n
		le := "+Inf"
		if i < len(snap.Bounds) {
			le = fmtFloat(snap.Bounds[i])
		}
		labels := append(append([]Label(nil), s.labels...), Label{"le", le})
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(sortLabels(labels)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(s.labels), fmtFloat(snap.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(s.labels), snap.Count)
	return err
}

// ErrBadExposition is wrapped by every parse error ParsePrometheus returns
// for malformed input (as opposed to an I/O error from the reader), so
// scrapers can distinguish a corrupt payload from a broken transport with
// errors.Is.
var ErrBadExposition = errors.New("metrics: bad exposition format")

// ParsePrometheus parses text exposition format (as produced by
// WritePrometheus) into a map keyed by SeriesKey — series name plus its
// label set sorted by label name. Comment and blank lines are skipped.
// Malformed input yields an error wrapping ErrBadExposition; it never
// panics, whatever the bytes.
func ParsePrometheus(r io.Reader) (map[string]float64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("%w: malformed line %q", ErrBadExposition, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad value in %q: %v", ErrBadExposition, line, err)
		}
		canon, err := canonicalSeriesKey(key)
		if err != nil {
			return nil, err
		}
		out[canon] = val
	}
	return out, nil
}

// canonicalSeriesKey re-renders "name{b="2",a="1"}" with labels sorted.
func canonicalSeriesKey(key string) (string, error) {
	open := strings.IndexByte(key, '{')
	if open < 0 {
		return key, nil
	}
	if !strings.HasSuffix(key, "}") {
		return "", fmt.Errorf("%w: malformed series %q", ErrBadExposition, key)
	}
	name, body := key[:open], key[open+1:len(key)-1]
	if name == "" {
		// "{} 0" would canonicalize to an empty, unrepresentable key.
		return "", fmt.Errorf("%w: series %q has no metric name", ErrBadExposition, key)
	}
	var labels []Label
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return "", fmt.Errorf("%w: malformed labels in %q", ErrBadExposition, key)
		}
		lname := body[:eq]
		rest := body[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if rest[i] == '"' {
				break
			}
			val.WriteByte(rest[i])
		}
		if i >= len(rest) {
			return "", fmt.Errorf("%w: unterminated label value in %q", ErrBadExposition, key)
		}
		labels = append(labels, Label{lname, val.String()})
		body = rest[i+1:]
		body = strings.TrimPrefix(body, ",")
	}
	return SeriesKey(name, labels...), nil
}
