package analysis

import (
	"sync"

	"spnet/internal/cost"
	"spnet/internal/gnutella"
	"spnet/internal/metrics"
	"spnet/internal/network"
	"spnet/internal/routing"
	"spnet/internal/topology"
)

// Result holds the evaluation of one network instance: per-node expected
// loads (eq. 1), expected results per query (eq. 2) and the traversal
// metrics the design rules depend on.
type Result struct {
	// Inst is the evaluated instance.
	Inst *network.Instance

	// ResultsPerQuery is E[R_S] (eq. 2) averaged over query sources,
	// weighted by each cluster's query rate.
	ResultsPerQuery float64
	// EPL is the expected path length: the expected number of hops a query
	// response message takes back to its source (Section 5.1, rule #3).
	EPL float64
	// MeanReachClusters is the average number of clusters a query reaches
	// (including the source cluster).
	MeanReachClusters float64
	// MeanReachPeers is the average number of peers covered by a query's
	// reach — the unit Section 5.2 specifies desired reach in.
	MeanReachPeers float64
	// QueryForwardsPerQuery is the expected number of query copies sent
	// over overlay edges per query (redundant copies included) — the
	// bandwidth knob routing strategies turn. For flood it equals the
	// Section 4.1 copy count; strategy evaluations scale it down.
	QueryForwardsPerQuery float64

	// Transfer, when set, is the analytical expectation for the content
	// transfer workload the caller pairs with this instance (PredictTransfer).
	// Evaluate never populates it: downloads are priced independently of the
	// query-path model and attached by callers that run both.
	Transfer *TransferPrediction

	spShared     []rawLoad // per cluster: query-path load of the virtual super-peer (split across partners)
	spPerPartner []rawLoad // per cluster: join/update load each partner bears in full
	clientBase   []rawLoad // per cluster: per-client load excluding the join component
	clientJoin   []rawLoad // per client, clusters back to back: the join component
	clientOff    []int32   // len n+1: cluster v's clients are clientJoin[clientOff[v]:clientOff[v+1]]
	respToSource []flow    // per cluster: total response flow for a query sourced there
	bd           bdAcc     // system-wide component attribution

	// Per-class super-peer byte rates (bytes/sec) mirroring spShared and
	// spPerPartner, attributed to the Table 2 taxonomy classes live nodes
	// meter. Accumulated additively alongside the rawLoad charges so the
	// existing float summation order — and thus determinism — is untouched.
	spSharedCls     []metrics.ByClass
	spPerPartnerCls []metrics.ByClass
}

// evaluator carries the working state of one evaluation.
type evaluator struct {
	inst *network.Instance
	res  *Result

	// fw is the routing strategy's mean-value forwarding model; nil means
	// flood, which takes the exact pre-strategy code paths (bit-identical
	// float sequences), including the clique closed form.
	fw *routing.Forwards

	// honest is the probability a non-source relay behaves honestly for a
	// given query: processes it over its index, responds, and forwards it,
	// instead of silently dropping it (adversarial freeloading). 1 is the
	// pre-adversary model; anything below routes through the probabilistic
	// reach path, with each relay's forwarding fraction and own response
	// flow scaled by honest.
	honest float64

	// Precomputed per-cluster quantities.
	users      []float64 // query-submitting users per cluster
	qWeight    []float64 // queries per second originated by the cluster
	clientFrac []float64 // fraction of the cluster's queries coming from clients
	own        []flow    // the cluster's own expected response (ProbResp, ExpAddrs, ExpResults)

	// Cost-model constants for the profile's expected query length.
	qBytes    float64
	sendQProc float64
	recvQProc float64

	// Rate-weighted accumulators for the traversal metrics.
	resultsNum, resultsDen float64
	eplNum, eplDen         float64
	reachClustersNum       float64
	reachPeersNum          float64
	fwdNum                 float64
}

// bfsScratch holds one evaluation's BFS working set (generic-graph path),
// leased from scratchPool so concurrent evaluations on the worker pool never
// share state and repeated evaluations don't reallocate. Pooled invariant:
// when a scratch is returned to the pool, every depth/parent entry is -1,
// every flowBuf entry is the zero flow, and order is empty — the same state
// the per-source reset loop in evalGraphQueries restores.
type bfsScratch struct {
	depth   []int32
	parent  []int32
	order   []int32
	flowBuf []flow
	// prob[v] is the probability a strategy-routed query reaches v; frac[v]
	// is the per-eligible-edge forwarding fraction at v. Pool invariant:
	// zero. Only touched when the evaluator carries a Forwards model.
	prob []float64
	frac []float64
	// nbuf is the buffer handed to Graph.Neighbors, with room for n entries
	// so an implicit graph never grows it. The returned slice is never
	// stored here: it may alias another instance's graph.
	nbuf []int32
}

var scratchPool = sync.Pool{New: func() any { return &bfsScratch{} }}

// getScratch leases a scratch sized for n clusters, preserving the pool
// invariant for the entries in use.
func getScratch(n int) *bfsScratch {
	s := scratchPool.Get().(*bfsScratch)
	if cap(s.depth) < n {
		s.depth = make([]int32, n)
		s.parent = make([]int32, n)
		s.flowBuf = make([]flow, n)
		s.prob = make([]float64, n)
		s.frac = make([]float64, n)
		s.order = make([]int32, 0, n)
		s.nbuf = make([]int32, 0, n)
		for i := range s.depth {
			s.depth[i] = -1
			s.parent[i] = -1
		}
		return s
	}
	s.depth = s.depth[:n]
	s.parent = s.parent[:n]
	s.flowBuf = s.flowBuf[:n]
	s.prob = s.prob[:n]
	s.frac = s.frac[:n]
	s.order = s.order[:0]
	return s
}

// Evaluate runs Steps 2–3 of the paper's evaluation model over one instance,
// producing expected loads for every node and the expected quality of
// results. The instance is treated as read-only.
func Evaluate(inst *network.Instance) *Result { return EvaluateWith(inst, Options{}) }

// Options selects what EvaluateWith models beyond the paper's flood over
// honest relays. The zero value is Evaluate.
type Options struct {
	// Forwards is a routing strategy's mean-value forwarding model: the
	// expected number of query copies a source or relay emits at each
	// eligible degree. Nil is flood. With a model, reach becomes
	// probabilistic: each BFS-tree node is reached with the product of the
	// forwarding fractions along its path, and every query-path charge,
	// response flow and traversal metric is weighted by that probability.
	Forwards *routing.Forwards
	// RelayDrop is the probability that a non-source relay does not serve a
	// query it receives, clamped to [0, 1] — for a malicious fraction m of
	// super-peers that each drop with probability d, RelayDrop = m·d. A
	// dishonest relay contributes no local processing, no response flow, and
	// forwards nothing, so reach decays multiplicatively with path length,
	// which is exactly how freeloading hollows out recall in the simulator
	// and the live overlay; 1 leaves the source cluster as the only
	// responder. Losses on the client access leg (Busy-lying or dropping
	// one's own clients' queries) are an orthogonal closed form layered on
	// by callers.
	RelayDrop float64
}

// EvaluateWith is Evaluate under a routing strategy, dishonest relays, or
// both. A field left zero takes the exact float sequence of the evaluation
// without it.
func EvaluateWith(inst *network.Instance, opts Options) *Result {
	drop := min(max(opts.RelayDrop, 0), 1)
	return evaluate(inst, opts.Forwards, 1-drop)
}

func evaluate(inst *network.Instance, fw *routing.Forwards, honest float64) *Result {
	n := len(inst.Clusters)
	clientOff := make([]int32, n+1)
	for v := range inst.Clusters {
		clientOff[v+1] = clientOff[v] + int32(len(inst.Clusters[v].Clients))
	}
	e := &evaluator{
		inst:   inst,
		fw:     fw,
		honest: honest,
		res: &Result{
			Inst:            inst,
			spShared:        make([]rawLoad, n),
			spPerPartner:    make([]rawLoad, n),
			clientBase:      make([]rawLoad, n),
			clientJoin:      make([]rawLoad, clientOff[n]),
			clientOff:       clientOff,
			respToSource:    make([]flow, n),
			spSharedCls:     make([]metrics.ByClass, n),
			spPerPartnerCls: make([]metrics.ByClass, n),
		},
		users:      make([]float64, n),
		qWeight:    make([]float64, n),
		clientFrac: make([]float64, n),
		own:        make([]flow, n),
	}
	qRate := inst.Profile.Rates.QueryRate
	for v := range inst.Clusters {
		cl := &inst.Clusters[v]
		e.users[v] = float64(cl.Users())
		e.qWeight[v] = qRate * e.users[v]
		if cl.Users() > 0 {
			e.clientFrac[v] = float64(len(cl.Clients)) / e.users[v]
		}
		e.own[v] = flow{msgs: cl.ProbResp, addrs: cl.ExpAddrs, results: cl.ExpResults}
	}
	qb, sp := cost.SendQuery(inst.Profile.QueryLen)
	_, rp := cost.RecvQuery(inst.Profile.QueryLen)
	e.qBytes, e.sendQProc, e.recvQProc = float64(qb), float64(sp), float64(rp)

	// The clique closed form hard-codes flood propagation; strategy models
	// and adversarial relays route through the generic BFS path, which reads
	// a Clique's neighbors like any other graph's.
	if inst.Graph.IsClique() && e.fw == nil && e.honest >= 1 {
		e.evalCliqueQueries()
	} else {
		e.evalGraphQueries()
	}
	e.evalClientLegs()
	e.evalJoins()
	e.evalUpdates()
	e.finalizeMetrics()
	return e.res
}

// respBytes returns the total wire bytes of a response flow.
func respBytes(f flow) float64 {
	return float64(gnutella.ResponseFixedLen)*f.msgs +
		float64(gnutella.ResponderRecordLen)*f.addrs +
		float64(gnutella.ResultRecordLen)*f.results
}

func sendRespProc(f flow) float64 {
	return cost.SendRespBase*f.msgs + cost.SendRespPerAddr*f.addrs + cost.SendRespPerResult*f.results
}

func recvRespProc(f flow) float64 {
	return cost.RecvRespBase*f.msgs + cost.RecvRespPerAddr*f.addrs + cost.RecvRespPerResult*f.results
}

// evalGraphQueries runs one BFS per source cluster over an explicit overlay
// and charges every query-path cost (Section 4.1, Step 2: the breadth-first
// traversal models propagation; responses travel up the predecessor tree).
//
// Tuning rule: the %.17g goldens pin the addends each accumulator receives
// and their order. Hoisting a product out of a loop or holding a slice header
// in a local keeps both; merging two adds, or replacing k equal adds by one
// multiplied by k, does not.
func (e *evaluator) evalGraphQueries() {
	g := e.inst.Graph
	n := g.N()
	ttl := e.inst.Config.TTL
	sc := getScratch(n)
	depth, parent, flowBuf, prob, frac := sc.depth, sc.parent, sc.flowBuf, sc.prob, sc.frac

	sp := e.res.spShared
	cls := e.res.spSharedCls
	bd := &e.res.bd
	own, users := e.own, e.users
	qBytes, sendQProc, recvQProc := e.qBytes, e.sendQProc, e.recvQProc
	useFw := e.fw != nil || e.honest < 1
	for s := 0; s < n; s++ {
		w := e.qWeight[s]
		if w == 0 {
			// A cluster with no users sources no queries; its reach metrics
			// would also be unweighted, so skip entirely.
			continue
		}
		order := sc.bfs(g, s, ttl)
		if useFw {
			e.computeReachProbs(sc, s, ttl)
		}

		// Query forwarding: every reached node u with depth < TTL forwards
		// to all neighbors except the edge the query arrived on (the source's
		// parent is -1, so it forwards on every edge). Copies arriving at
		// already-visited nodes are redundant: received, then dropped
		// (Section 5.1, rule #4). Under a strategy model each edge carries
		// the expected copy count prob[u]·frac[u] instead of a full copy; the
		// flood path performs no extra multiplications so its float sequence
		// is unchanged.
		for _, u := range order {
			if int(depth[u]) >= ttl {
				continue // nodes at the TTL horizon do not forward
			}
			wf := w
			if useFw {
				wf = w * prob[u] * frac[u]
				if wf == 0 {
					continue
				}
			}
			par := parent[u]
			qB, sendU, recvU := wf*qBytes, wf*sendQProc, wf*recvQProc
			su, cu := &sp[u], &cls[u]
			for _, nb := range g.Neighbors(int(u), sc.nbuf) {
				if nb == par {
					continue
				}
				su.outBytes += qB
				su.procU += sendU
				su.msgs += wf
				cu.Add(metrics.ClassQuery, metrics.DirOut, qB)
				sn := &sp[nb]
				sn.inBytes += qB
				sn.procU += recvU
				sn.msgs += wf
				cls[nb].Add(metrics.ClassQuery, metrics.DirIn, qB)
				bd.queryTransfer(wf, qBytes, sendQProc, recvQProc)
				e.fwdNum += wf
			}
		}

		// Every reached cluster processes the query over its index once
		// (under a strategy model: with the probability it is reached).
		for _, v32 := range order {
			v := int(v32)
			f := own[v]
			wp := w
			if useFw {
				// A reached-but-dishonest relay neither processes nor
				// responds; its expected contribution scales by honest.
				wp = w * prob[v]
				p := prob[v]
				if v != s {
					wp *= e.honest
					p *= e.honest
				}
				f.msgs *= p
				f.addrs *= p
				f.results *= p
			}
			pu := float64(cost.ProcessQuery(own[v].results))
			sp[v].procU += wp * pu
			bd.process(wp, pu)
			flowBuf[v] = f
		}

		// Responses travel up the BFS predecessor tree; iterating the BFS
		// order backwards visits children before parents, so each node's
		// flow is complete when it is charged.
		for i := len(order) - 1; i >= 1; i-- {
			v := order[i]
			f := flowBuf[v]
			if f.isZero() {
				continue
			}
			p := parent[v]
			b, sendU, recvU := respBytes(f), sendRespProc(f), recvRespProc(f)
			sv := &sp[v]
			sv.outBytes += w * b
			sv.procU += w * sendU
			sv.msgs += w * f.msgs
			cls[v].Add(metrics.ClassResponse, metrics.DirOut, w*b)
			spar := &sp[p]
			spar.inBytes += w * b
			spar.procU += w * recvU
			spar.msgs += w * f.msgs
			cls[p].Add(metrics.ClassResponse, metrics.DirIn, w*b)
			bd.respTransfer(w, b, sendU, recvU)
			flowBuf[p].add(f)
		}
		total := flowBuf[s] // source: own + all relayed flows
		e.res.respToSource[s] = total

		// Traversal metrics.
		e.resultsNum += w * total.results
		e.resultsDen += w
		if useFw {
			var clustersReached, peers float64
			for _, v := range order {
				p := prob[v]
				clustersReached += p
				peers += p * users[v]
			}
			e.reachClustersNum += w * clustersReached
			e.reachPeersNum += w * peers
			for _, v := range order[1:] {
				m := prob[v] * e.honest * own[v].msgs
				e.eplNum += w * float64(depth[v]) * m
				e.eplDen += w * m
			}
		} else {
			e.reachClustersNum += w * float64(len(order))
			var peers float64
			for _, v := range order {
				peers += users[v]
			}
			e.reachPeersNum += w * peers
			for _, v := range order[1:] {
				e.eplNum += w * float64(depth[v]) * own[v].msgs
				e.eplDen += w * own[v].msgs
			}
		}

		// Reset the touched buffers for the next source.
		for _, v := range order {
			depth[v] = -1
			parent[v] = -1
			flowBuf[v] = flow{}
			prob[v] = 0
			frac[v] = 0
		}
	}
	// The per-source resets restored the pool invariant; return the lease.
	sc.order = sc.order[:0]
	scratchPool.Put(sc)
}

// computeReachProbs fills the scratch prob/frac buffers for one source under
// the strategy forwarding model. frac[u] is the expected fraction of u's
// eligible edges (all neighbors minus the arrival edge) that carry a copy:
// Forwards(eligible)/eligible, clamped to [0,1] — the strategy is assumed to
// pick eligible edges uniformly, so each BFS-tree child is reached from its
// parent with probability frac[parent]. prob multiplies down the tree; BFS
// order visits parents first, so one pass suffices.
func (e *evaluator) computeReachProbs(sc *bfsScratch, s, ttl int) {
	g := e.inst.Graph
	pr, fr := sc.prob, sc.frac
	for _, u32 := range sc.order {
		u := int(u32)
		if u == s {
			pr[u] = 1
		} else {
			p := int(sc.parent[u])
			pr[u] = pr[p] * fr[p]
		}
		if int(sc.depth[u]) >= ttl {
			continue // horizon nodes forward nothing: frac stays 0
		}
		eligible := g.Degree(u)
		if u != s {
			eligible--
		}
		if eligible <= 0 {
			continue
		}
		f := 1.0 // flood: every eligible edge carries a copy
		if e.fw != nil {
			var exp float64
			if u == s {
				exp = e.fw.Source(eligible)
			} else {
				exp = e.fw.Relay(eligible)
			}
			f = exp / float64(eligible)
			if f < 0 {
				f = 0
			} else if f > 1 {
				f = 1
			}
		}
		if u != s {
			// A dishonest relay forwards nothing; the source is the client's
			// own access partner, modeled honest here (access-leg losses are
			// the caller's closed form).
			f *= e.honest
		}
		fr[u] = f
	}
}

// bfs fills the scratch depth/parent/order buffers with the traversal from
// source and returns order, which doubles as the queue.
func (sc *bfsScratch) bfs(g topology.Graph, source, ttl int) []int32 {
	depth, parent := sc.depth, sc.parent
	depth[source] = 0
	parent[source] = -1
	order := append(sc.order[:0], int32(source))
	for head := 0; head < len(order); head++ {
		u := order[head]
		d := depth[u]
		if int(d) >= ttl {
			break // BFS order is depth-monotone; nothing shallower remains
		}
		for _, nb := range g.Neighbors(int(u), sc.nbuf) {
			if depth[nb] == -1 {
				depth[nb] = d + 1
				parent[nb] = u
				order = append(order, nb)
			}
		}
	}
	sc.order = order
	return order
}

// evalCliqueQueries is the closed-form fast path for strongly connected
// overlays: every cluster is one hop from every other, responses travel
// directly to the source, and for TTL >= 2 every node forwards one redundant
// copy to every node other than itself and the source.
func (e *evaluator) evalCliqueQueries() {
	n := e.inst.Graph.N()
	ttl := e.inst.Config.TTL
	sp := e.res.spShared
	cls := e.res.spSharedCls

	var totFlow flow
	var totW, totUsers float64
	for v := 0; v < n; v++ {
		totFlow.add(e.own[v])
		totW += e.qWeight[v]
		totUsers += e.users[v]
	}
	flooding := ttl >= 1 && n > 1
	dupCopies := 0.0
	if ttl >= 2 && n >= 3 {
		dupCopies = float64(n - 2)
	}

	for v := 0; v < n; v++ {
		w := e.qWeight[v]
		wr := totW - w // queries per second arriving from remote sources

		if !flooding {
			// Degenerate case: a single cluster or TTL 0 — queries stay home.
			sp[v].procU += w * float64(cost.ProcessQuery(e.own[v].results))
			e.res.bd.process(w, float64(cost.ProcessQuery(e.own[v].results)))
			e.res.respToSource[v] = e.own[v]
			if w > 0 {
				e.resultsNum += w * e.own[v].results
				e.resultsDen += w
				e.reachClustersNum += w
				e.reachPeersNum += w * e.users[v]
			}
			continue
		}

		// As source: flood to the n-1 neighbors, receive every remote
		// cluster's response directly.
		rem := totFlow
		rem.msgs -= e.own[v].msgs
		rem.addrs -= e.own[v].addrs
		rem.results -= e.own[v].results
		sp[v].outBytes += w * float64(n-1) * e.qBytes
		sp[v].procU += w * float64(n-1) * e.sendQProc
		sp[v].msgs += w * float64(n-1)
		cls[v].Add(metrics.ClassQuery, metrics.DirOut, w*float64(n-1)*e.qBytes)
		e.fwdNum += w * float64(n-1)
		sp[v].inBytes += w * respBytes(rem)
		sp[v].procU += w * recvRespProc(rem)
		sp[v].msgs += w * rem.msgs
		cls[v].Add(metrics.ClassResponse, metrics.DirIn, w*respBytes(rem))
		e.res.respToSource[v] = totFlow
		e.res.bd.queryTransfer(w*float64(n-1), e.qBytes, e.sendQProc, e.recvQProc)

		// Every cluster processes every query in the system exactly once.
		sp[v].procU += totW * float64(cost.ProcessQuery(e.own[v].results))
		e.res.bd.process(totW, float64(cost.ProcessQuery(e.own[v].results)))

		// As responder for remote queries: receive the primary copy plus
		// any redundant copies, respond directly to the source, and (for
		// TTL >= 2) forward one redundant copy to everyone else.
		copies := 1 + dupCopies
		sp[v].inBytes += wr * copies * e.qBytes
		sp[v].procU += wr * copies * e.recvQProc
		sp[v].msgs += wr * copies
		cls[v].Add(metrics.ClassQuery, metrics.DirIn, wr*copies*e.qBytes)
		sp[v].outBytes += wr * respBytes(e.own[v])
		sp[v].procU += wr * sendRespProc(e.own[v])
		sp[v].msgs += wr * e.own[v].msgs
		cls[v].Add(metrics.ClassResponse, metrics.DirOut, wr*respBytes(e.own[v]))
		e.res.bd.respTransfer(wr, respBytes(e.own[v]), sendRespProc(e.own[v]), recvRespProc(e.own[v]))
		if dupCopies > 0 {
			sp[v].outBytes += wr * dupCopies * e.qBytes
			sp[v].procU += wr * dupCopies * e.sendQProc
			sp[v].msgs += wr * dupCopies
			cls[v].Add(metrics.ClassQuery, metrics.DirOut, wr*dupCopies*e.qBytes)
			e.res.bd.queryTransfer(wr*dupCopies, e.qBytes, e.sendQProc, e.recvQProc)
			e.fwdNum += wr * dupCopies
		}

		// Traversal metrics: full reach, all responses one hop out.
		if w > 0 {
			e.resultsNum += w * totFlow.results
			e.resultsDen += w
			e.reachClustersNum += w * float64(n)
			e.reachPeersNum += w * totUsers
			e.eplNum += w * rem.msgs // every message travels exactly 1 hop
			e.eplDen += w * rem.msgs
		}
	}
}

// evalClientLegs charges the per-query interactions between clients and
// their super-peer: the client submits each query to one partner and
// receives every Response message back; the super-peer side (receive query,
// forward responses) is charged to the cluster here too.
func (e *evaluator) evalClientLegs() {
	qRate := e.inst.Profile.Rates.QueryRate
	sp := e.res.spShared
	for v := range e.inst.Clusters {
		cl := &e.inst.Clusters[v]
		total := e.res.respToSource[v]
		b := respBytes(total)

		// Super-peer side, per query sourced by one of its clients.
		wc := qRate * float64(len(cl.Clients))
		if wc > 0 {
			sp[v].inBytes += wc * e.qBytes
			sp[v].procU += wc * e.recvQProc
			sp[v].msgs += wc
			sp[v].outBytes += wc * b
			sp[v].procU += wc * sendRespProc(total)
			sp[v].msgs += wc * total.msgs
			e.res.spSharedCls[v].Add(metrics.ClassQuery, metrics.DirIn, wc*e.qBytes)
			e.res.spSharedCls[v].Add(metrics.ClassResponse, metrics.DirOut, wc*b)
			e.res.bd.queryTransfer(wc, e.qBytes, e.sendQProc, e.recvQProc)
			e.res.bd.respTransfer(wc, b, sendRespProc(total), recvRespProc(total))
		}

		// Client side, identical for every client of the cluster.
		base := &e.res.clientBase[v]
		base.outBytes += qRate * e.qBytes
		base.procU += qRate * e.sendQProc
		base.msgs += qRate
		base.inBytes += qRate * b
		base.procU += qRate * recvRespProc(total)
		base.msgs += qRate * total.msgs
	}
}

// evalJoins charges client joins (metadata shipped to every partner;
// Section 3.2) and the super-peers' own collection indexing. Join rate is
// per node: the inverse of the node's session lifespan.
func (e *evaluator) evalJoins() {
	partners := e.inst.Config.Partners()
	for v := range e.inst.Clusters {
		cl := &e.inst.Clusters[v]
		pp := &e.res.spPerPartner[v]
		joins := e.res.clientJoins(v)

		for i, c := range cl.Clients {
			jr := 1 / c.Lifespan
			jb, jpS := cost.SendJoin(c.Files)
			_, jpR := cost.RecvJoin(c.Files)

			// Client side: one Join per partner.
			cj := &joins[i]
			k := float64(partners)
			cj.outBytes += jr * k * float64(jb)
			cj.procU += jr * k * float64(jpS)
			cj.msgs += jr * k

			// Each partner receives and indexes the full metadata.
			pp.inBytes += jr * float64(jb)
			pp.procU += jr * (float64(jpR) + float64(cost.ProcessJoin(c.Files)))
			pp.msgs += jr
			e.res.spPerPartnerCls[v].Add(metrics.ClassJoin, metrics.DirIn, jr*float64(jb))
			e.res.bd.join(2*jr*k*float64(jb),
				jr*k*(float64(jpS)+float64(jpR)+float64(cost.ProcessJoin(c.Files))))
		}

		// The super-peers' own collections: each partner indexes its own
		// files locally and, with k-redundancy, ships them to its k-1
		// co-partners and indexes each co-partner's collection in turn. The
		// k partners' loads are averaged into the per-partner accumulator.
		k := float64(partners)
		var inB, outB, proc, msgs float64
		for _, self := range cl.Partners {
			js := 1 / self.Lifespan
			sb, spr := cost.SendJoin(self.Files)
			_, rpr := cost.RecvJoin(self.Files)
			// Own indexing plus (k-1) sends of the own collection.
			proc += js * ((k-1)*float64(spr) + float64(cost.ProcessJoin(self.Files)))
			outB += js * (k - 1) * float64(sb)
			msgs += js * (k - 1)
			// Each of the other k-1 partners receives and indexes it.
			inB += js * (k - 1) * float64(sb)
			proc += js * (k - 1) * (float64(rpr) + float64(cost.ProcessJoin(self.Files)))
			msgs += js * (k - 1)
		}
		pp.inBytes += inB / k
		pp.outBytes += outB / k
		pp.procU += proc / k
		pp.msgs += msgs / k
		e.res.spPerPartnerCls[v].Add(metrics.ClassJoin, metrics.DirIn, inB/k)
		e.res.spPerPartnerCls[v].Add(metrics.ClassJoin, metrics.DirOut, outB/k)
		// inB/outB/proc are totals across the k partners, which is exactly
		// this cluster's aggregate contribution.
		e.res.bd.join(inB+outB, proc)
	}
}

// evalUpdates charges collection updates: each client sends every update to
// every partner; partners apply it to their index (Section 3.2).
func (e *evaluator) evalUpdates() {
	uRate := e.inst.Profile.Rates.UpdateRate
	if uRate == 0 {
		return
	}
	partners := e.inst.Config.Partners()
	ub, upS := cost.SendUpdateCost()
	_, upR := cost.RecvUpdateCost()
	upP := cost.ProcessUpdateCost()
	for v := range e.inst.Clusters {
		cl := &e.inst.Clusters[v]
		pp := &e.res.spPerPartner[v]

		// Client side (same for every client).
		base := &e.res.clientBase[v]
		k := float64(partners)
		base.outBytes += uRate * k * float64(ub)
		base.procU += uRate * k * float64(upS)
		base.msgs += uRate * k
		nc := float64(len(cl.Clients))
		e.res.bd.update(2*uRate*k*float64(ub)*nc,
			uRate*k*nc*(float64(upS)+float64(upR)+float64(upP)))

		// Each partner receives every client's updates in full.
		wc := uRate * float64(len(cl.Clients))
		pp.inBytes += wc * float64(ub)
		pp.procU += wc * (float64(upR) + float64(upP))
		pp.msgs += wc
		e.res.spPerPartnerCls[v].Add(metrics.ClassUpdate, metrics.DirIn, wc*float64(ub))

		// Partners' own updates: applied locally; with k-redundancy also
		// shipped to the k-1 co-partners (symmetric, so per-partner load is
		// k-1 sends plus k-1 receives).
		pp.procU += uRate * float64(upP)
		e.res.bd.update(0, uRate*float64(upP)*k)
		if co := float64(partners - 1); co > 0 {
			pp.outBytes += uRate * co * float64(ub)
			pp.inBytes += uRate * co * float64(ub)
			pp.procU += uRate*co*float64(upS) + uRate*co*(float64(upR)+float64(upP))
			pp.msgs += 2 * co * uRate
			e.res.spPerPartnerCls[v].Add(metrics.ClassUpdate, metrics.DirOut, uRate*co*float64(ub))
			e.res.spPerPartnerCls[v].Add(metrics.ClassUpdate, metrics.DirIn, uRate*co*float64(ub))
			e.res.bd.update(2*uRate*co*float64(ub)*k,
				uRate*co*k*(float64(upS)+float64(upR)+float64(upP)))
		}
	}
}

// finalizeMetrics turns the rate-weighted accumulators into the Result's
// summary metrics.
func (e *evaluator) finalizeMetrics() {
	if e.resultsDen > 0 {
		e.res.ResultsPerQuery = e.resultsNum / e.resultsDen
		e.res.MeanReachClusters = e.reachClustersNum / e.resultsDen
		e.res.MeanReachPeers = e.reachPeersNum / e.resultsDen
		e.res.QueryForwardsPerQuery = e.fwdNum / e.resultsDen
	}
	if e.eplDen > 0 {
		e.res.EPL = e.eplNum / e.eplDen
	}
}
