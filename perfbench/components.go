package main

import (
	"fmt"
	"time"

	"clustersim/internal/bpred"
	"clustersim/internal/interconnect"
	"clustersim/internal/isa"
	"clustersim/internal/mem"
	"clustersim/internal/pipeline"
	"clustersim/internal/rng"
	"clustersim/internal/workload"
)

// componentTimings times the modules below the pipeline one at a time, on
// instruction streams drawn from the workload's own benchmarks: the engine
// (standalone drain), both L1 organizations, the branch predictor, both
// interconnects and a link calendar. Each figure is the median of three
// passes.
func componentTimings(tr *tracer, m map[string]float64, benches []string, seed uint64, ops int) error {
	per := ops / len(benches)
	if per == 0 {
		return fmt.Errorf("%d operations cannot cover %d benchmarks", ops, len(benches))
	}
	stream := make([]isa.Instruction, 0, per*len(benches))
	var genNs []float64
	for pass := 0; pass < 3; pass++ {
		stream = stream[:0]
		sp := tr.begin("workload.drain", "")
		t0 := time.Now()
		for _, b := range benches {
			gen, err := workload.New(b, seed)
			if err != nil {
				return err
			}
			for i := 0; i < per; i++ {
				stream = append(stream, isa.Instruction{})
				gen.Next(&stream[len(stream)-1])
			}
		}
		genNs = append(genNs, float64(time.Since(t0).Nanoseconds())/float64(len(stream)))
		tr.end(sp)
	}
	m["workload.gen_minstr_per_s"] = 1e3 / median(genNs)

	const clusters = pipeline.MaxClusters
	ring, err := interconnect.NewRing(clusters, 1)
	if err != nil {
		return err
	}
	grid, err := interconnect.NewGrid(clusters, 1)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		metric string
		cfg    mem.Config
		net    interconnect.Network
	}{
		{"mem.load_ns.central", mem.DefaultCentralConfig(clusters), ring},
		{"mem.load_ns.dist", mem.DefaultDistConfig(clusters), grid},
	} {
		sys, err := mem.New(c.cfg, c.net)
		if err != nil {
			return err
		}
		m[c.metric] = timeOps(tr, c.metric, func() int {
			sys.Reset()
			c.net.Reset()
			n := 0
			for i := range stream {
				in := &stream[i]
				t := uint64(i + 1)
				switch in.Class {
				case isa.Load:
					sys.Load(t, i%clusters, in.Addr)
					n++
				case isa.Store:
					sys.StoreCommit(t, i%clusters, in.Addr)
					n++
				}
			}
			return n
		})
	}

	bp, err := bpred.New(bpred.DefaultConfig())
	if err != nil {
		return err
	}
	m["bpred.predict_ns"] = timeOps(tr, "bpred.predict", func() int {
		bp.Reset()
		n := 0
		for i := range stream {
			in := &stream[i]
			switch in.Class {
			case isa.Branch:
				bp.PredictBranch(in.PC, in.Taken, in.Target)
			case isa.Call:
				bp.PredictCall(in.PC, in.Target)
			case isa.Return:
				bp.PredictReturn(in.Target)
			default:
				continue
			}
			n++
		}
		return n
	})

	// Endpoints and request cycles are drawn from the seed: two sends
	// start per cycle, and calendar requests arrive two per three cycles
	// with jitter, so some collide.
	pairs := make([][2]int, ops)
	at := make([]uint64, ops)
	r := rng.New(seed)
	for i := range pairs {
		pairs[i] = [2]int{r.Intn(clusters), r.Intn(clusters)}
		at[i] = uint64(i*3/2+r.Intn(3)) + 1
	}
	for _, c := range []struct {
		metric string
		net    interconnect.Network
	}{{"interconnect.send_ns.ring", ring}, {"interconnect.send_ns.grid", grid}} {
		m[c.metric] = timeOps(tr, c.metric, func() int {
			c.net.Reset()
			for i, p := range pairs {
				c.net.Send(uint64(i/2+1), p[0], p[1])
			}
			return len(pairs)
		})
	}
	cal := interconnect.NewCalendar()
	m["interconnect.reserve_ns"] = timeOps(tr, "interconnect.reserve", func() int {
		cal.Clear()
		for _, t := range at {
			cal.Reserve(t)
		}
		return len(at)
	})
	return nil
}

// timeOps runs pass three times and returns the median nanoseconds per
// operation it reports.
func timeOps(tr *tracer, name string, pass func() int) float64 {
	ns := make([]float64, 0, 3)
	for i := 0; i < 3; i++ {
		sp := tr.begin(name, "")
		t0 := time.Now()
		n := pass()
		d := time.Since(t0).Nanoseconds()
		tr.end(sp)
		if n > 0 {
			ns = append(ns, float64(d)/float64(n))
		}
	}
	if len(ns) == 0 {
		return 0
	}
	return median(ns)
}
