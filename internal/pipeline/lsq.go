package pipeline

// Load/store ordering (the memory stage).
//
// A load whose address is known may start once every older in-flight store
// is resolved for its cluster (address known there: agenDoneAt, or under
// the decentralized cache the broadcast arrival resolveGlobalAt when the
// store sits in another cluster). Walking the older stores youngest-first,
// the first store that is unresolved blocks the load and the first one
// whose address matches forwards to it; when neither exists the load
// accesses the cache. With M the youngest older matching store and Y the
// youngest older unresolved one, that is:
//
//   - M exists and is younger than Y, or there is no Y: forward from M;
//   - else, Y exists: block on Y;
//   - else: access the cache.
//
// Three structures make that O(work) instead of O(in-flight stores) per
// attempt:
//
//   - a store index keyed by addr>>3 (a bucket table whose entries chain
//     through the stores' stPrev links, youngest first) gives M, once, at
//     the load's dispatch: later stores are younger than the load, and
//     older ones only leave by retiring, oldest first;
//   - each load keeps a cursor (clearOrd) into the store window: every
//     older store from the cursor up is known resolved for it, and
//     resolution is permanent, so each (load, store) pair is checked at
//     most once; a global frontier (storeFront) bounds the walk from below
//     by the oldest store not yet resolved everywhere;
//   - a blocked load is parked instead of re-probed: until the resolve
//     cycle of an issued blocker, or on the blocker's wait list until it
//     issues (its resolve cycle is known from then on). ldWake is the
//     load's next attempt cycle and ldNextWake a lower bound over all
//     pending loads, so a cycle with nothing due skips the pass.
//
// A skipped attempt would have been a pure no-op: a blocked one returns
// before any network send or cache access, and one waiting for forwarded
// data whose arrival is known reads only cached values. The pass still
// visits pendingLoads in issue order, so the loads that start in a cycle
// call memsys.Load and net.Send in the same order as a probe of every load
// every cycle would.
// None of this state is serialized; rebuildLoadOrder derives it from the
// store window after a checkpoint load.

// storeBucket maps an address to its store-index bucket.
func (p *Processor) storeBucket(addr uint64) uint64 {
	k := addr >> 3
	return (k ^ k>>11) & uint64(len(p.stIdx)-1)
}

// indexStore enters a dispatching store into the store index.
func (p *Processor) indexStore(seq, addr uint64) {
	b := p.storeBucket(addr)
	p.coldAt(seq).stPrev = p.stIdx[b]
	p.stIdx[b] = seq + 1
}

// olderMatch returns seq+1 of the youngest in-flight store older than seq
// whose address matches addr>>3, or 0 when there is none.
func (p *Processor) olderMatch(seq, addr uint64) uint64 {
	for l := p.stIdx[p.storeBucket(addr)]; l != 0 && l-1 >= p.headSeq; {
		if l-1 < seq && p.at(l-1).in.Addr>>3 == addr>>3 {
			return l
		}
		l = p.coldAt(l - 1).stPrev
	}
	return 0
}

// nextStoreOrd is the ordinal the next dispatched store will take.
func (p *Processor) nextStoreOrd() uint64 { return p.storeOrd0 + uint64(len(p.stores)) }

// storeAt returns the in-flight store with ordinal ord.
func (p *Processor) storeAt(ord uint64) *uop { return p.at(p.stores[ord-p.storeOrd0]) }

// resolveAt is the cycle store s's address is known to load u.
func (p *Processor) resolveAt(s, u *uop) uint64 {
	if p.cfg.Cache == DecentralizedCache && s.cluster != u.cluster {
		return p.coldAt(s.seq).resolveGlobalAt
	}
	return s.agenDoneAt
}

// storeFrontier advances and returns the ordinal below which every
// in-flight store is resolved for every cluster: its address generated
// and, under the decentralized cache, its broadcast arrived.
func (p *Processor) storeFrontier(now uint64) uint64 {
	if oldest := p.storeOrd0 + uint64(p.storesHead); p.storeFront < oldest {
		p.storeFront = oldest
	}
	dist := p.cfg.Cache == DecentralizedCache
	for end := p.nextStoreOrd(); p.storeFront < end; p.storeFront++ {
		s := p.storeAt(p.storeFront)
		if !s.issued || s.agenDoneAt > now || dist && p.coldAt(s.seq).resolveGlobalAt > now {
			break
		}
	}
	return p.storeFront
}

// queueLoad adds an issued load to the pending list; its first attempt is
// the cycle its address is known.
func (p *Processor) queueLoad(u *uop) {
	p.pendingLoads = append(p.pendingLoads, u.seq) //simlint:alloc amortized: pendingLoads reaches LSQ-bounded capacity once, then is reused
	u.ldWake = u.agenDoneAt
	if u.ldWake < p.ldNextWake {
		p.ldNextWake = u.ldWake
	}
}

// startLoads attempts every due pending load, in issue order.
func (p *Processor) startLoads(now uint64) {
	if len(p.pendingLoads) == 0 || p.ldNextWake > now {
		return
	}
	next := unknown
	kept := p.pendingLoads[:0]
	for _, seq := range p.pendingLoads {
		u := p.at(seq)
		if u.ldWake > now || !p.tryStartLoad(u, now) {
			kept = append(kept, seq) //simlint:alloc in-place filter over pendingLoads[:0]; same backing array
			if u.ldWake < next {
				next = u.ldWake
			}
		} else {
			// The load's arrival is now computable: wake chained
			// consumers for the next cycle, when the legacy scan
			// would first see memDone (issue precedes mem).
			p.progress = true
			p.wakeChain(u, 0, nil, 0)
		}
	}
	p.pendingLoads = kept
	p.ldNextWake = next
}

// tryStartLoad checks memory ordering for a load and, when clear, either
// forwards from an older matching store or accesses the cache. It returns
// whether the load's completion is now scheduled; otherwise u.ldWake is
// the next cycle an attempt can succeed.
func (p *Processor) tryStartLoad(u *uop, now uint64) bool {
	u.waitStore = 0
	uc := p.coldAt(u.seq)
	m := uc.fwdFrom
	if m != 0 && m-1 < p.headSeq {
		m = 0 // retired, and every older store with it
	}
	// Walk down from the cursor to M (or the frontier): the first
	// unresolved store is Y, the youngest unresolved store younger than M.
	lo := p.storeFrontier(now)
	c := uc.clearOrd
	for ; c > lo; c-- {
		s := p.storeAt(c - 1)
		if s.seq+1 == m {
			break
		}
		if !s.issued || p.resolveAt(s, u) > now {
			uc.clearOrd = c
			p.blockLoad(u, s)
			return false
		}
	}
	uc.clearOrd = c
	if m == 0 {
		start := now
		if u.agenDoneAt > start {
			start = u.agenDoneAt
		}
		if p.dtlb != nil {
			start += p.dtlb.Translate(u.in.Addr)
		}
		done, _ := p.memsys.Load(start, int(u.cluster), u.in.Addr)
		u.doneAt = done
		u.memDone = true
		u.memStarted = true
		return true
	}
	s := p.at(m - 1)
	if !s.issued || p.resolveAt(s, u) > now {
		p.blockLoad(u, s)
		return false
	}
	// Store-to-load forwarding: data moves from the store's LSQ to the
	// load's cluster.
	dataAt := p.opArrival(s, s.in.SrcDist2, &s.src2At)
	if dataAt == unknown || dataAt > now {
		// An unknown arrival becomes known only when the data's
		// producer issues or completes, and the first probe after that
		// makes the transfer: keep probing every cycle.
		u.ldWake = now + 1
		if dataAt != unknown {
			u.ldWake = dataAt
		}
		return false
	}
	t := now + 1
	if s.cluster != u.cluster && !p.cfg.FreeRegComm {
		t = p.net.Send(t, int(s.cluster), int(u.cluster))
	}
	u.doneAt = t
	u.memDone = true
	u.memStarted = true
	p.stats.LoadForwards++
	return true
}

// blockLoad parks load u behind the unresolved store s: until s's resolve
// cycle when s has issued, on s's wait list until it does otherwise.
func (p *Processor) blockLoad(u, s *uop) {
	u.waitStore = s.seq + 1
	if s.issued {
		u.ldWake = p.resolveAt(s, u)
		return
	}
	u.ldWake = unknown
	sc := p.coldAt(s.seq)
	p.coldAt(u.seq).ldNext = sc.ldHead
	sc.ldHead = u.seq + 1
}

// wakeStoreWaiters releases the loads parked on store s, which has just
// issued: each waits for s's resolve cycle in its cluster.
func (p *Processor) wakeStoreWaiters(s *uop) {
	sc := p.coldAt(s.seq)
	for l := sc.ldHead; l != 0; l = p.coldAt(l - 1).ldNext {
		w := p.at(l - 1)
		w.ldWake = p.resolveAt(s, w)
		if w.ldWake < p.ldNextWake {
			p.ldNextWake = w.ldWake
		}
	}
	sc.ldHead = 0
}

// rebuildLoadOrder reconstructs the ordering state after LoadCheckpoint:
// the store index from the store window, and for every in-flight load not
// yet started its matching store and a cursor at the youngest older store.
// Pending loads re-attempt from the cycle their address is known; an early
// attempt is a pure no-op that parks the load where it was.
func (p *Processor) rebuildLoadOrder() {
	for i := range p.stIdx {
		p.stIdx[i] = 0
	}
	p.storeOrd0, p.storeFront, p.ldNextWake = 0, 0, 0
	for _, seq := range p.stores {
		p.coldAt(seq).ldHead = 0
		p.indexStore(seq, p.at(seq).in.Addr)
	}
	ord := uint64(0)
	for seq := p.headSeq; seq < p.tailSeq; seq++ {
		u := p.at(seq)
		switch {
		case u.isStore():
			ord++
		case u.isLoad() && !u.memStarted:
			uc := p.coldAt(seq)
			uc.fwdFrom = p.olderMatch(seq, u.in.Addr)
			uc.clearOrd = ord
			uc.ldNext = 0
			u.ldWake = u.agenDoneAt
		}
	}
}
