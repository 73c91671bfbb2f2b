package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"

	"clustersim/internal/interconnect"
	"clustersim/internal/mem"
	"clustersim/internal/pipeline"
)

// pinsJSON holds the expected digest of every cell at fullSize for the
// development and held-out seeds. A speed-only change leaves it valid; a
// change to simulated behaviour must regenerate it (go test -run
// TestUpdatePins -update) and say so.
//
//go:embed pins.json
var pinsJSON []byte

func loadPins() (map[string]string, error) {
	pins := map[string]string{}
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// gate is the correctness check every repetition passes through. A cell
// fails when its run fails, when its Result breaks a memory or interconnect
// accounting identity, when its digest differs from the first repetition's,
// or when it differs from its pin.
type gate struct {
	prefix  string
	pins    map[string]string
	corrupt func(*pipeline.Result)
	out     io.Writer

	first []cellOut
	// repDigest is the digest over the first repetition's cells
	// (sim.result_digest).
	repDigest uint64
	// failed counts failures found outside the repetitions.
	failed int
}

func newGate(c config) *gate {
	out := c.out
	if out == nil {
		out = io.Discard
	}
	return &gate{
		prefix:  fmt.Sprintf("%s/%d/", c.workload, c.seed),
		pins:    c.pins,
		corrupt: c.corrupt,
		out:     out,
	}
}

// result checks one simulated Result and returns its digest. diameter is
// the machine's interconnect diameter (the bound on hops per transfer).
func (g *gate) result(res *pipeline.Result, diameter int) (uint64, error) {
	if g.corrupt != nil {
		g.corrupt(res)
	}
	if err := res.Mem.Conserved(mem.Stats{}); err != nil {
		return 0, err
	}
	if err := res.Net.Conserved(interconnect.Stats{}, diameter); err != nil {
		return 0, err
	}
	return resultDigest(res), nil
}

// rep checks one repetition's cells and counts the failed ones into o.
func (g *gate) rep(o *repOut) {
	for i, c := range o.cells {
		bad := false
		if c.err != nil {
			fmt.Fprintf(g.out, "FAIL cell %s: %v\n", c.name, c.err)
			bad = true
		}
		if g.first != nil && (i >= len(g.first) || g.first[i].name != c.name || g.first[i].digest != c.digest) {
			fmt.Fprintf(g.out, "FAIL cell %s: digest %013x differs from the first repetition\n", c.name, c.digest)
			bad = true
		}
		if want, ok := g.pins[g.prefix+c.name]; ok && want != fmt.Sprintf("%013x", c.digest) {
			fmt.Fprintf(g.out, "FAIL cell %s: digest %013x, pinned %s\n", c.name, c.digest, want)
			bad = true
		}
		if bad {
			o.failed++
		}
	}
	if g.first == nil {
		g.first = o.cells
		h := fnv.New64a()
		for _, c := range o.cells {
			writeU64(h, c.digest)
		}
		g.repDigest = h.Sum64() >> 12
	}
}

// digests returns the first repetition's cell digests under their
// pins.json keys.
func (g *gate) digests() map[string]string {
	d := make(map[string]string, len(g.first))
	for _, c := range g.first {
		d[g.prefix+c.name] = fmt.Sprintf("%013x", c.digest)
	}
	return d
}

// printDigests lists the first repetition's cell digests as pins.json
// keys and values.
func (g *gate) printDigests(w io.Writer) {
	for _, c := range g.first {
		fmt.Fprintf(w, "digest %s%s %013x\n", g.prefix, c.name, c.digest)
	}
}

func writeU64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// resultDigest hashes every simulated statistic of a Result. Fields are
// listed explicitly so that adding a statistic to Result leaves the digest
// of the existing ones, and the pins, unchanged. The value keeps 52 bits so
// it prints exactly as a JSON number.
func resultDigest(r *pipeline.Result) uint64 {
	h := fnv.New64a()
	for _, s := range []string{r.Benchmark, r.Policy} {
		writeU64(h, uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, v := range []uint64{
		r.Cycles, r.Instructions, r.Fetched, r.Dispatched, r.Redirects,
		r.DistantIssued, r.DistantCommitted, r.Reconfigs, r.ActiveSum,
		r.RegTransfers, r.RegLatencySum, r.StoreBroadcasts, r.BankMispredicts,
		r.LoadForwards, r.ICacheMisses, r.TLBMisses,
		r.Mem.Loads, r.Mem.Stores, r.Mem.L1Hits, r.Mem.L1Misses, r.Mem.L1Writebacks,
		r.Mem.L2Hits, r.Mem.L2Misses, r.Mem.L2MergedMisses, r.Mem.L2Writebacks,
		r.Mem.FlushWritebacks, r.Mem.Flushes,
		r.Net.Transfers, r.Net.Hops, r.Net.LatencySum,
		r.Branch.Lookups, r.Branch.Mispredicts, r.Bank.Lookups, r.Bank.Mispredicts,
	} {
		writeU64(h, v)
	}
	return h.Sum64() >> 12
}

// textDigest hashes a rendered output (a table) the same way.
func textDigest(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64() >> 12
}

// diameter returns the hop bound of cfg's interconnect.
func diameter(cfg pipeline.Config) (int, error) {
	var n interconnect.Network
	var err error
	if cfg.Topology == pipeline.GridTopology {
		n, err = interconnect.NewGrid(cfg.Clusters, cfg.HopLatency)
	} else {
		n, err = interconnect.NewRing(cfg.Clusters, cfg.HopLatency)
	}
	if err != nil {
		return 0, err
	}
	return n.Diameter(), nil
}
