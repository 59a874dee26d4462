package sim

import (
	"sort"

	"spnet/internal/stats"
)

// PartnerFailure schedules the crash of one super-peer partner at a time
// offset from the start of a run, in seconds. The same schedule drives the
// discrete-event simulator (virtual seconds) and the live network harness
// (wall-clock seconds, usually scaled), so a reliability measurement in one
// layer can be replayed bit-for-bit in the other.
type PartnerFailure struct {
	// At is the failure time in seconds from the start of the run.
	At float64
	// Cluster is the cluster (overlay node) index.
	Cluster int
	// Partner is the partner slot within the cluster's virtual super-peer.
	Partner int
}

// Schedule is a failure history: partner crashes ordered by time.
type Schedule []PartnerFailure

// Sorted returns a copy ordered by time, breaking ties by cluster then
// partner so replay order is total.
func (s Schedule) Sorted() Schedule {
	out := make(Schedule, len(s))
	copy(out, s)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Cluster != out[j].Cluster {
			return out[i].Cluster < out[j].Cluster
		}
		return out[i].Partner < out[j].Partner
	})
	return out
}

// Truncate returns the prefix of the (sorted) schedule that fires before
// duration seconds.
func (s Schedule) Truncate(duration float64) Schedule {
	out := s.Sorted()
	for i, ev := range out {
		if ev.At >= duration {
			return out[:i]
		}
	}
	return out
}

// ExponentialSchedule draws each partner slot's failure process, a Poisson
// clock with exponential gaps of mean mtbf, out to duration seconds. Replayed
// with events for a down slot dropped, each slot fails after an exponential
// up-time of mean mtbf. The result is deterministic in (seed, clusters,
// partners, mtbf, duration): each slot's gap stream comes from its own split
// of the seed.
func ExponentialSchedule(seed uint64, clusters, partners int, mtbf, duration float64) Schedule {
	var out Schedule
	if mtbf <= 0 || duration <= 0 {
		return out
	}
	root := stats.NewRNG(seed)
	for c := 0; c < clusters; c++ {
		for p := 0; p < partners; p++ {
			rng := root.Split(uint64(c*partners + p))
			t := rng.ExpFloat64() * mtbf
			for t < duration {
				out = append(out, PartnerFailure{At: t, Cluster: c, Partner: p})
				t += rng.ExpFloat64() * mtbf
			}
		}
	}
	return out.Sorted()
}
