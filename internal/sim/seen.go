package sim

import "math/bits"

// seenEntry records where a query first arrived at a cluster, for duplicate
// detection and reverse-path routing.
type seenEntry struct {
	from   *partnerNode // nil when this cluster sourced the query
	origin *clientNode  // non-nil when a local client sourced the query
	// terms is the query's keyword set, kept only when the routing strategy
	// learns from hit history (so responses can credit the neighbor they
	// arrived through).
	terms []string
}

// seenRetention returns how long, in virtual seconds, a cluster must keep a
// query's seen entry, derived from the run itself:
//
//   - Every message is delivered exactly latency after it is sent, and a
//     query travels at most ttl hops: New stamps Config.TTL on every
//     cluster, splits inherit their origin's TTL, and adaptive rule III only
//     ever decays it. Clusters first see a query at most ttl·latency after
//     it was sourced.
//   - A cluster forwards a query only when it first sees it, so a cluster
//     that first sees it d hops out (at d·latency after the source) has a
//     reverse path whose hop-i cluster made its entry at i·latency. Its
//     Response (or a forged one, which leaves a relay at its arrival time)
//     reaches the hop-i cluster at (2d−i)·latency, when that entry is
//     (2d−2i)·latency old: never more than 2·ttl·latency.
//   - One more latency of margin covers float rounding in the event times.
//
// No lookup asks for an older entry, so retiring entries any time after
// this is invisible: the map this table replaced kept them 60 to 180
// virtual seconds, and every golden, EventsExecuted included, is unchanged.
func seenRetention(ttl int, latency float64) float64 {
	return float64(2*ttl+1) * latency
}

// seenTable is a virtual super-peer's duplicate-detection and reverse-path
// table, shared by all its partners (the virtual super-peer is one overlay
// node, so a query is processed once per cluster whichever partner a copy
// lands on). It holds two generations, each an open-addressing hash table;
// inserts go to the current one and lookups check both. Once the current
// generation is span old the previous one is retired whole (its storage is
// cleared and reused as the new current generation), so an entry is kept at
// least span and at most 2·span after it was made, and the table holds only
// the queries first seen in the last two spans. There is no per-entry
// expiry, and once both generations have grown to the peak in-flight
// occupancy the table does not allocate.
type seenTable struct {
	gens  [2]seenGen // gens[cur] takes inserts, gens[cur^1] is the previous generation
	cur   int
	start float64 // virtual time gens[cur] opened
	span  float64 // generation length: the retention bound
}

// roll retires every generation that can no longer hold a live entry at
// virtual time now.
func (t *seenTable) roll(now float64) {
	if now < t.start+t.span {
		return
	}
	t.cur ^= 1
	t.gens[t.cur].reset()
	if now < t.start+2*t.span {
		t.start += t.span
		return
	}
	t.gens[t.cur^1].reset() // idle for two spans: nothing is live
	t.start = now
}

// lookup returns query id's entry, or nil when the cluster has not seen it
// within the retention bound. The pointer is valid until the next insert.
func (t *seenTable) lookup(id uint64, now float64) *seenEntry {
	t.roll(now)
	if e := t.gens[t.cur].find(id + 1); e != nil {
		return e
	}
	return t.gens[t.cur^1].find(id + 1)
}

// insert adds a blank entry for query id at virtual time now and returns it
// for the caller to fill in. The cluster must not hold id already.
func (t *seenTable) insert(id uint64, now float64) *seenEntry {
	t.roll(now)
	return t.gens[t.cur].insert(id + 1)
}

// seenGen is one generation: linear probing over a power-of-two slot array
// kept at most three-quarters full, keys spread by Fibonacci hashing (query
// ids are sequential). Keys sit apart from their entries so a probe scans
// one dense array. max lets a lookup for a query newer than every entry —
// the usual first copy, since ids grow with source time — skip the probe.
type seenGen struct {
	keys    []uint64 // query id + 1; 0 marks an empty slot
	entries []seenEntry
	shift   uint // 64 − log2(len(keys))
	n       int
	max     uint64 // largest key held; 0 when empty
}

func (g *seenGen) home(key uint64) int { return int((key * 0x9e3779b97f4a7c15) >> g.shift) }

func (g *seenGen) find(key uint64) *seenEntry {
	if key > g.max {
		return nil
	}
	mask := len(g.keys) - 1
	for i := g.home(key); ; i = (i + 1) & mask {
		switch g.keys[i] {
		case key:
			return &g.entries[i]
		case 0:
			return nil
		}
	}
}

func (g *seenGen) insert(key uint64) *seenEntry {
	if 4*(g.n+1) > 3*len(g.keys) {
		g.grow()
	}
	mask := len(g.keys) - 1
	i := g.home(key)
	for g.keys[i] != 0 {
		i = (i + 1) & mask
	}
	g.keys[i] = key
	g.n++
	g.max = max(g.max, key)
	return &g.entries[i]
}

// grow doubles the slot arrays (8 slots at first) and rehashes into them. It
// runs only while the generation is still reaching its peak occupancy.
func (g *seenGen) grow() {
	keys, entries := g.keys, g.entries
	size := max(2*len(keys), 8)
	g.keys, g.entries, g.n = make([]uint64, size), make([]seenEntry, size), 0
	g.shift = 65 - uint(bits.Len(uint(size)))
	for i, k := range keys {
		if k != 0 {
			*g.insert(k) = entries[i]
		}
	}
}

// reset empties the generation, keeping its storage.
func (g *seenGen) reset() {
	if g.n > 0 {
		clear(g.keys)
		clear(g.entries)
		g.n, g.max = 0, 0
	}
}
