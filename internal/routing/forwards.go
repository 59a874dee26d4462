package routing

// Forwards is the analytic counterpart of a Strategy for the mean-value
// analysis engine: instead of simulating individual selections, the engine
// charges each node the *expected* number of query copies it forwards. Source
// and Relay return that expectation as a function of d, the node's count of
// eligible neighbors (overlay degree, minus one at relays for the neighbor
// the query arrived from). Implementations must satisfy 0 <= f(d) <= d; the
// engine clamps regardless.
//
// A nil *Forwards means flood — every eligible neighbor, exactly the paper's
// Table 2 charges — and is evaluated on the unmodified pre-strategy code
// path.
type Forwards struct {
	// Name labels the modeled strategy in reports.
	Name string
	// Source is the expected forward count at the query's source super-peer.
	Source func(d int) float64
	// Relay is the expected forward count at a relaying super-peer.
	Relay func(d int) float64
}

// Forwards models the strategy's k seeded walkers: the source starts
// min(k, d) walkers, each relay forwards an arriving walker along min(1, d)
// edges.
func (s RandomWalk) Forwards() *Forwards {
	k := float64(s.k)
	return &Forwards{
		Name:   s.Name(),
		Source: func(d int) float64 { return minf(k, d) },
		Relay:  func(d int) float64 { return minf(1, d) },
	}
}

// ConstForwards models a content-aware strategy whose expected forward counts
// are known in closed form for a given topology and workload: the source
// forwards an expected source copies, relays relay copies, each clamped to
// the eligible degree. The routingcompare experiment derives these constants
// for the reference topology.
func ConstForwards(name string, source, relay float64) *Forwards {
	return &Forwards{
		Name:   name,
		Source: func(d int) float64 { return minf(source, d) },
		Relay:  func(d int) float64 { return minf(relay, d) },
	}
}

func minf(v float64, d int) float64 {
	if fd := float64(d); v > fd {
		return fd
	}
	if v < 0 {
		return 0
	}
	return v
}
