package gnutella

import "spnet/internal/metrics"

// MessageClass classifies a decoded message onto the metrics load taxonomy
// (Table 2 components plus the live-stack Busy, heartbeat and transfer
// classes): its frame-table row's class. Allocation-free.
func MessageClass(m Message) metrics.Class { return frames[m.Type()].class }

// Meter attributes one codec message to lm in direction d, charging its full
// wire size (payload plus frame overhead) so measured bytes are commensurate
// with the analytical cost model.
func Meter(lm *metrics.LoadMeter, d metrics.Dir, m Message) {
	lm.Observe(MessageClass(m), d, m.WireSize())
}
