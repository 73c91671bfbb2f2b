package pipeline

import (
	"testing"

	"clustersim/internal/isa"
	"clustersim/internal/workload"
)

// refOrder is the outcome of the reference ordering walk for one load.
type refOrder uint8

const (
	refCache   refOrder = iota // every older store resolved, none matching
	refForward                 // the youngest relevant store matches and is resolved
	refBlocked                 // an unresolved older store comes first
)

// refLoadOrder is the youngest-first walk over every older in-flight store
// that the store index, cursors and parking replaced, kept as the
// reference FuzzLoadOrderEquivalence holds them to. It reads the machine
// and changes nothing.
func refLoadOrder(p *Processor, u *uop, now uint64) (refOrder, uint64) {
	for i := len(p.stores) - 1; i >= p.storesHead; i-- {
		sseq := p.stores[i]
		if sseq >= u.seq {
			continue
		}
		s := p.at(sseq)
		resolveAt := s.agenDoneAt
		if p.cfg.Cache == DecentralizedCache && s.cluster != u.cluster {
			resolveAt = p.coldAt(sseq).resolveGlobalAt
		}
		if !s.issued || resolveAt > now {
			return refBlocked, sseq
		}
		if s.in.Addr>>3 == u.in.Addr>>3 {
			return refForward, sseq
		}
	}
	return refCache, 0
}

// FuzzLoadOrderEquivalence builds an in-flight window of loads, stores and
// ALU operations (a few aliasing addresses, random clusters, store issue
// cycles, store-data producers and retirement), then steps the memory
// stage cycle by cycle. Before each pass the reference walk predicts every
// due load's outcome; after it, the load must have started exactly when
// the reference says it can (by forwarding or from the cache), and a
// blocked load must name the reference's blocking store.
func FuzzLoadOrderEquivalence(f *testing.F) {
	f.Add(false, []byte("\x01\x12\x23\x34\x45\x56\x67\x78\x89\x9a\xab\xbc\xcd\xde\xef\xf0\x0f\x1e\x2d\x3c"), []byte("\x05\x00\x03\x01\x07\x02"))
	f.Add(true, []byte("\x40\x81\xc2\x03\x44\x85\xc6\x07\x48\x89\xca\x0b\x4c\x8d\xce\x0f"), []byte("\x00\x09\x01\x02\x0f\x03\x04"))
	f.Fuzz(func(t *testing.T, dist bool, window, events []byte) {
		cfg := DefaultConfig()
		if dist {
			cfg.Cache = DecentralizedCache
		}
		p, err := New(cfg, workload.MustNew("gzip", 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		const head = 1 << 12
		p.cycle = 100
		p.headSeq, p.tailSeq = head, head
		if len(window) > 2*cfg.LSQPerCluster {
			window = window[:2*cfg.LSQPerCluster]
		}
		// Dispatch: the window's instructions enter in program order, the
		// way dispatchStage enters them into the store window and index.
		issueAt := make([]uint64, len(window)) // stores: the cycle each issues (0 once issued)
		for i, b := range window {
			seq := uint64(head + i)
			u, uc := p.at(seq), p.coldAt(seq)
			*u, *uc = uop{}, uopCold{}
			u.seq = seq
			u.cluster = int32(b>>4) % int32(cfg.Clusters)
			u.in.Addr = 0x1000 + uint64(b&3)*8 + uint64(b>>2&1)*4 // four words, two offsets each
			switch b >> 3 % 4 {
			case 0, 1:
				u.in.Class = isa.Load
				uc.fwdFrom = p.olderMatch(seq, u.in.Addr)
				uc.clearOrd = p.nextStoreOrd()
			case 2:
				u.in.Class = isa.Store
				// The data comes from the previous instruction when that
				// is an ALU operation in the same cluster (its doneAt
				// decides when forwarding can deliver), else it is
				// architected.
				if i > 0 {
					if prev := p.at(seq - 1); prev.in.Class == isa.IntALU && prev.cluster == u.cluster {
						u.in.SrcDist2 = 1
					}
				}
				u.src1At, u.src2At = unknown, unknown
				uc.activeAtDispatch = int32(p.active)
				p.stores = append(p.stores, seq)
				p.indexStore(seq, u.in.Addr)
				issueAt[i] = p.cycle + 1 + uint64(b)%7
			default:
				u.in.Class = isa.IntALU
				u.issued = true
				u.doneAt = p.cycle + uint64(b)%9
			}
			p.tailSeq = seq + 1
		}
		// Loads issue at once; their addresses are known over the next
		// few cycles.
		for seq := p.headSeq; seq < p.tailSeq; seq++ {
			if u := p.at(seq); u.isLoad() {
				u.issued = true
				u.agenDoneAt = p.cycle + 1 + seq%3
				p.queueLoad(u)
			}
		}
		for step := 0; step < 40; step++ {
			p.cycle++
			now := p.cycle
			var ev byte
			if step < len(events) {
				ev = events[step]
			}
			// Issue stage: due stores issue in program order, recorded as
			// tryIssueV's store branch records them; bit 1 of the event
			// byte delays the one it names.
			for i, at := range issueAt {
				if at == 0 || at > now {
					continue
				}
				if ev&2 != 0 && int(ev>>2)%len(window) == i {
					issueAt[i] = now + 2
					continue
				}
				u := p.at(uint64(head + i))
				u.issued, u.issueAt = true, now
				u.agenDoneAt = now + 1
				u.doneAt = u.agenDoneAt
				p.storeResolved(u)
				p.wakeStoreWaiters(u)
				issueAt[i] = 0
			}
			// Memory stage, checked against the reference.
			type expect struct {
				seq   uint64
				kind  refOrder
				store uint64
				ready bool // forwarding: the store's data has arrived
			}
			var want []expect
			var early []uint64 // loads whose address is not known yet
			for _, seq := range p.pendingLoads {
				u := p.at(seq)
				if u.agenDoneAt > now {
					early = append(early, seq)
					continue
				}
				kind, s := refLoadOrder(p, u, now)
				e := expect{seq: seq, kind: kind, store: s}
				if kind == refForward {
					st := p.at(s)
					dataAt := uint64(0)
					if d := uint64(st.in.SrcDist2); d != 0 && s-d >= p.headSeq {
						dataAt = p.at(s - d).doneAt
					}
					e.ready = dataAt <= now
				}
				want = append(want, e)
			}
			forwards := p.stats.LoadForwards
			p.startLoads(now)
			wantForwards := uint64(0)
			for _, e := range want {
				seq, u := e.seq, p.at(e.seq)
				started := e.kind == refCache || (e.kind == refForward && e.ready)
				if u.memStarted != started {
					t.Fatalf("cycle %d: load %d (cluster %d, addr %#x) started=%v, reference walk %+v",
						now, seq, u.cluster, u.in.Addr, u.memStarted, e)
				}
				if e.kind == refForward && e.ready {
					wantForwards++
				}
				if e.kind == refBlocked && u.waitStore != e.store+1 {
					t.Fatalf("cycle %d: load %d blocked on %d, reference walk on store %d",
						now, seq, int64(u.waitStore)-1, e.store)
				}
			}
			for _, seq := range early {
				if p.at(seq).memStarted {
					t.Fatalf("cycle %d: load %d started before its address was known", now, seq)
				}
			}
			if got := p.stats.LoadForwards - forwards; got != wantForwards {
				t.Fatalf("cycle %d: %d loads forwarded, reference walk %d", now, got, wantForwards)
			}
			// Commit: bit 0 of the event byte retires the window head if
			// it is done.
			if ev&1 != 0 && p.headSeq < p.tailSeq {
				u := p.at(p.headSeq)
				done := u.issued && u.doneAt <= now
				switch {
				case u.isLoad():
					done = u.memStarted
				case u.isStore():
					done = u.issued && u.agenDoneAt <= now && p.coldAt(u.seq).resolveGlobalAt <= now
				}
				if done {
					if u.isStore() {
						p.popStore(u.seq)
					}
					p.headSeq++
				}
			}
		}
	})
}
