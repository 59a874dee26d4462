package gnutella

import "spnet/internal/metrics"

// MessageClass classifies a message or a Frame onto the metrics load taxonomy
// (Table 2 components plus the live-stack Busy, heartbeat and transfer
// classes): its frame-table row's class. Allocation-free.
func MessageClass(m Message) metrics.Class { return frames[m.Type()].class }

// Meter attributes one codec message to lm in direction d, charging its full
// wire size (payload plus frame overhead) so measured bytes are commensurate
// with the analytical cost model.
func Meter(lm *metrics.LoadMeter, d metrics.Dir, m Message) {
	lm.Observe(MessageClass(m), d, m.WireSize())
}

// HitResponders returns a QueryHit's responder count, from its decoded form
// or its Frame alike, and 0 for any other message. With the hit's WireSize
// it fixes the result count, so a meter prices a hit's Table 2 processing
// without decoding it.
func HitResponders(m Message) int {
	switch h := m.(type) {
	case *QueryHit:
		return len(h.Responders)
	case *Frame:
		if h.Type() == TypeQueryHit {
			return int(h.buf[23])
		}
	}
	return 0
}
