package experiments

import (
	"fmt"

	"clustersim/internal/core"
	"clustersim/internal/pipeline"
	"clustersim/internal/runner"
	"clustersim/internal/stats"
	"clustersim/internal/workload"
)

// Table3 reproduces the benchmark-characterization table: base IPC on the
// monolithic machine and instructions per branch mispredict, against the
// paper's published values.
func Table3(o Options) (*Table, error) {
	t := &Table{
		ID:      "table3",
		Title:   "Benchmark characterization (paper Table 3)",
		Columns: []string{"suite", "IPC", "IPC(paper)", "mispred-int", "mispred-int(paper)"},
		Notes: []string{
			"IPC measured on the monolithic machine (16-cluster resources, no communication cost)",
		},
	}
	benches := o.benchmarks()
	reqs := make([]runner.Request, len(benches))
	for i, b := range benches {
		reqs[i] = o.request("table3", b, pipeline.MonolithicConfig(), nil, o.Window(b))
	}
	rs, err := o.sweeper().RunAll(reqs)
	if err != nil {
		err = fmt.Errorf("table3: %w", err)
		if !salvageable(err) {
			return nil, err
		}
	}
	for i, b := range benches {
		pd, _ := workload.Paper(b)
		r := rs[i]
		mispred := Str("-")
		if !failed(r) {
			mispred = Num(r.MispredictInterval(), 0)
		}
		t.Rows = append(t.Rows, Row{Name: b, Cells: []Cell{
			Str(pd.Suite),
			ipcCell(r),
			Num(pd.BaseIPC, 2),
			mispred,
			Num(pd.MispredictInterval, 0),
		}})
	}
	return t, err
}

// Fig3 reproduces Figure 3: IPC of statically fixed 2/4/8/16-cluster
// organizations with the centralized cache and ring interconnect.
func Fig3(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig3",
		Title:   "IPC of fixed cluster organizations (paper Figure 3)",
		Columns: []string{"2", "4", "8", "16", "best"},
	}
	counts := []int{2, 4, 8, 16}
	benches := o.benchmarks()
	var reqs []runner.Request
	for _, b := range benches {
		for _, n := range counts {
			cfg := pipeline.DefaultConfig()
			cfg.ActiveClusters = n
			reqs = append(reqs, o.request(fmt.Sprintf("fig3-c%d", n), b, cfg, nil, o.Window(b)))
		}
	}
	rs, err := o.sweeper().RunAll(reqs)
	if err != nil {
		err = fmt.Errorf("fig3: %w", err)
		if !salvageable(err) {
			return nil, err
		}
	}
	for bi, b := range benches {
		row := Row{Name: b}
		best, bestN := 0.0, 0
		for ci, n := range counts {
			r := rs[bi*len(counts)+ci]
			row.Cells = append(row.Cells, ipcCell(r))
			if !failed(r) && r.IPC() > best {
				best, bestN = r.IPC(), n
			}
		}
		bestCell := Str("-")
		if bestN > 0 {
			bestCell = Str(fmt.Sprintf("%d", bestN))
		}
		row.Cells = append(row.Cells, bestCell)
		t.Rows = append(t.Rows, row)
	}
	return t, err
}

// Table4 reproduces the instability-factor analysis of §4.1 as two tables.
// "table4" gives the minimum interval length with <5% instability and the
// instability at a 10K interval, next to the paper's values. "table4-curve"
// gives the full curve behind them: the instability factor at 10K×{1,2,4,…,
// 128} instructions, re-aggregated from the same 10K-interval trace, plus
// the minimum interval again.
func Table4(o Options) ([]*Table, error) {
	t := &Table{
		ID:      "table4",
		Title:   "Instability factors vs interval length (paper Table 4)",
		Columns: []string{"min-interval", "factor%", "instab@10K%", "paper-min", "paper@10K%"},
		Notes: []string{
			"phase lengths are scaled ~10x down from the paper's, so minimum intervals scale accordingly",
		},
	}
	mults := []int{1, 2, 4, 8, 16, 32, 64, 128}
	curve := &Table{
		ID:    "table4-curve",
		Title: "Instability factor (%) at each interval length (paper §4.1)",
		Notes: []string{
			"each column re-aggregates table4's 10K-interval trace; min-interval is the shortest length under 5%",
		},
	}
	for _, m := range mults {
		curve.Columns = append(curve.Columns, fmt.Sprintf("%dK%%", 10*m))
	}
	curve.Columns = append(curve.Columns, "min-interval")
	benches := o.benchmarks()
	// The recorder controller is harvested after its run (its interval
	// trace feeds the instability analysis), so these runs bypass the
	// cache: each request must actually execute on its own recorder.
	recs := make([]*stats.Recorder, len(benches))
	reqs := make([]runner.Request, len(benches))
	for i, b := range benches {
		recs[i] = stats.NewRecorder(10_000)
		req := o.request("table4", b, pipeline.DefaultConfig(), recs[i], o.longestWindow(b))
		req.NoCache = true
		reqs[i] = req
	}
	rs, err := o.sweeper().RunAll(reqs)
	if err != nil {
		err = fmt.Errorf("table4: %w", err)
		if !salvageable(err) {
			return nil, err
		}
	}
	for i, b := range benches {
		pd, _ := workload.Paper(b)
		if failed(rs[i]) {
			// The run died: its recorder's trace is partial at best.
			t.Rows = append(t.Rows, Row{Name: b, Cells: []Cell{
				Str("-"), Str("-"), Str("-"),
				Num(pd.MinStableInterval, 0),
				Num(pd.InstabilityAt10K, 0),
			}})
			row := Row{Name: b}
			for range curve.Columns {
				row.Cells = append(row.Cells, Str("-"))
			}
			curve.Rows = append(curve.Rows, row)
			continue
		}
		trace := recs[i].Intervals()
		th := stats.DefaultThresholds()
		minLen, factor := stats.MinStableInterval(trace, 10_000, mults, 5, th)
		at10K := stats.Instability(trace, th)
		t.Rows = append(t.Rows, Row{Name: b, Cells: []Cell{
			Num(float64(minLen), 0),
			Num(factor, 1),
			Num(at10K, 1),
			Num(pd.MinStableInterval, 0),
			Num(pd.InstabilityAt10K, 0),
		}})
		row := Row{Name: b}
		for _, f := range stats.InstabilityCurve(trace, mults, th) {
			row.Cells = append(row.Cells, Num(f, 1))
		}
		row.Cells = append(row.Cells, Num(float64(minLen), 0))
		curve.Rows = append(curve.Rows, row)
	}
	return []*Table{t, curve}, err
}

// schemeSweep submits one request per benchmark×scheme cell (bench-major
// order) and returns results indexed [bench][scheme].
func schemeSweep(o Options, id string, cfg pipeline.Config, mks []func() pipeline.Controller) ([][]pipeline.Result, error) {
	benches := o.benchmarks()
	reqs := make([]runner.Request, 0, len(benches)*len(mks))
	for _, b := range benches {
		for _, mk := range mks {
			reqs = append(reqs, o.request(id, b, cfg, mk(), o.Window(b)))
		}
	}
	flat, err := o.sweeper().RunAll(reqs)
	if err != nil && !salvageable(err) {
		return nil, err
	}
	out := make([][]pipeline.Result, len(benches))
	for bi := range benches {
		out[bi] = flat[bi*len(mks) : (bi+1)*len(mks)]
	}
	return out, err
}

// summarize appends a geomean row plus improvement-vs-best-static notes.
// staticCols identifies which columns are static configurations. Failed cells
// of a salvaged sweep carry IPC 0 and are excluded from the aggregates; a
// column with no surviving cells renders "-".
func summarize(t *Table, ipcs map[string][]float64, staticCols []int) {
	if len(ipcs) == 0 {
		return
	}
	cols := len(t.Columns)
	gm := make([]float64, cols)
	for c := 0; c < cols; c++ {
		var vals []float64
		for _, row := range ipcs {
			if c < len(row) && row[c] > 0 {
				vals = append(vals, row[c])
			}
		}
		gm[c] = geomean(vals)
	}
	row := Row{Name: "geomean"}
	for _, v := range gm {
		row.Cells = append(row.Cells, numOrDash(v, 2))
	}
	t.Rows = append(t.Rows, row)
	bestStatic := 0.0
	for _, c := range staticCols {
		if gm[c] > bestStatic {
			bestStatic = gm[c]
		}
	}
	for c := 0; c < cols; c++ {
		isStatic := false
		for _, s := range staticCols {
			if c == s {
				isStatic = true
			}
		}
		if isStatic || bestStatic == 0 || gm[c] == 0 {
			continue
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s vs best static (geomean): %+.1f%%",
			t.Columns[c], 100*(gm[c]/bestStatic-1)))
	}
}

// Fig5 reproduces Figure 5: static 4/16 against the interval-based scheme
// with exploration and the no-exploration distant-ILP scheme at three fixed
// interval lengths, on the centralized cache.
func Fig5(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig5",
		Title:   "Interval-based schemes, centralized cache (paper Figure 5)",
		Columns: []string{"static-4", "static-16", "explore", "dilp-500", "dilp-1K", "dilp-10K"},
	}
	mks := []func() pipeline.Controller{
		func() pipeline.Controller { return &core.Static{N: 4} },
		func() pipeline.Controller { return &core.Static{N: 16} },
		func() pipeline.Controller { return core.NewExplore(core.ExploreConfig{}) },
		func() pipeline.Controller { return core.NewDistantILP(core.DistantILPConfig{Interval: 500}) },
		func() pipeline.Controller { return core.NewDistantILP(core.DistantILPConfig{Interval: 1000}) },
		func() pipeline.Controller { return core.NewDistantILP(core.DistantILPConfig{Interval: 10_000}) },
	}
	sweep, err := schemeSweep(o, "fig5", pipeline.DefaultConfig(), mks)
	if err != nil {
		err = fmt.Errorf("fig5: %w", err)
		if sweep == nil {
			return nil, err
		}
	}
	ipcs := map[string][]float64{}
	var exploreDistant, exploreReconf []float64
	for bi, b := range o.benchmarks() {
		row := Row{Name: b}
		for i, r := range sweep[bi] {
			row.Cells = append(row.Cells, ipcCell(r))
			ipcs[b] = append(ipcs[b], r.IPC())
			if i == 2 && !failed(r) {
				exploreDistant = append(exploreDistant, r.DistantILPFraction())
				exploreReconf = append(exploreReconf, r.ReconfigsPerMInstr())
			}
		}
		t.Rows = append(t.Rows, row)
	}
	summarize(t, ipcs, []int{0, 1})
	t.Notes = append(t.Notes, fmt.Sprintf(
		"explore scheme: mean distant-ILP fraction %.2f, %.0f reconfigurations per M instructions",
		mean(exploreDistant), mean(exploreReconf)))
	return t, err
}

// Fig6 reproduces Figure 6: the fine-grained reconfiguration schemes
// against the exploration scheme and the static bases.
func Fig6(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig6",
		Title:   "Fine-grained reconfiguration (paper Figure 6)",
		Columns: []string{"static-4", "static-16", "explore", "fg-branch", "fg-callreturn"},
	}
	mks := []func() pipeline.Controller{
		func() pipeline.Controller { return &core.Static{N: 4} },
		func() pipeline.Controller { return &core.Static{N: 16} },
		func() pipeline.Controller { return core.NewExplore(core.ExploreConfig{}) },
		func() pipeline.Controller { return core.NewFineGrain(core.FineGrainConfig{}) },
		func() pipeline.Controller { return core.NewFineGrain(core.FineGrainConfig{CallReturnOnly: true}) },
	}
	sweep, err := schemeSweep(o, "fig6", pipeline.DefaultConfig(), mks)
	if err != nil {
		err = fmt.Errorf("fig6: %w", err)
		if sweep == nil {
			return nil, err
		}
	}
	ipcs := map[string][]float64{}
	for bi, b := range o.benchmarks() {
		row := Row{Name: b}
		for _, r := range sweep[bi] {
			row.Cells = append(row.Cells, ipcCell(r))
			ipcs[b] = append(ipcs[b], r.IPC())
		}
		t.Rows = append(t.Rows, row)
	}
	summarize(t, ipcs, []int{0, 1})
	return t, err
}

// Fig7 reproduces Figure 7: the decentralized cache model under the
// interval-based schemes, including reconfiguration cache flushes.
func Fig7(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig7",
		Title:   "Interval-based schemes, decentralized cache (paper Figure 7)",
		Columns: []string{"static-4", "static-16", "explore", "dilp-1K", "dilp-10K"},
	}
	cfg := pipeline.DefaultConfig()
	cfg.Cache = pipeline.DecentralizedCache
	mks := []func() pipeline.Controller{
		func() pipeline.Controller { return &core.Static{N: 4} },
		func() pipeline.Controller { return &core.Static{N: 16} },
		func() pipeline.Controller { return core.NewExplore(core.ExploreConfig{}) },
		func() pipeline.Controller { return core.NewDistantILP(core.DistantILPConfig{Interval: 1000}) },
		func() pipeline.Controller { return core.NewDistantILP(core.DistantILPConfig{Interval: 10_000}) },
	}
	sweep, err := schemeSweep(o, "fig7", cfg, mks)
	if err != nil {
		err = fmt.Errorf("fig7: %w", err)
		if sweep == nil {
			return nil, err
		}
	}
	ipcs := map[string][]float64{}
	var flushWB, flushes uint64
	var exploreReconf []float64
	for bi, b := range o.benchmarks() {
		row := Row{Name: b}
		for i, r := range sweep[bi] {
			row.Cells = append(row.Cells, ipcCell(r))
			ipcs[b] = append(ipcs[b], r.IPC())
			if i == 2 && !failed(r) {
				flushWB += r.Mem.FlushWritebacks
				flushes += r.Mem.Flushes
				exploreReconf = append(exploreReconf, r.ReconfigsPerMInstr())
			}
		}
		t.Rows = append(t.Rows, row)
	}
	summarize(t, ipcs, []int{0, 1})
	t.Notes = append(t.Notes, fmt.Sprintf(
		"explore scheme: %d reconfiguration flushes, %d writebacks (paper: flushes cost ~0.3%% IPC)",
		flushes, flushWB))
	t.Notes = append(t.Notes, fmt.Sprintf(
		"explore scheme: mean %.0f reconfigurations per M instructions",
		mean(exploreReconf)))
	return t, err
}

// Fig8 reproduces Figure 8: the grid interconnect under the exploration
// scheme.
func Fig8(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig8",
		Title:   "Grid interconnect (paper Figure 8)",
		Columns: []string{"static-4", "static-16", "explore"},
	}
	cfg := pipeline.DefaultConfig()
	cfg.Topology = pipeline.GridTopology
	mks := []func() pipeline.Controller{
		func() pipeline.Controller { return &core.Static{N: 4} },
		func() pipeline.Controller { return &core.Static{N: 16} },
		func() pipeline.Controller { return core.NewExplore(core.ExploreConfig{}) },
	}
	sweep, err := schemeSweep(o, "fig8", cfg, mks)
	if err != nil {
		err = fmt.Errorf("fig8: %w", err)
		if sweep == nil {
			return nil, err
		}
	}
	ipcs := map[string][]float64{}
	for bi, b := range o.benchmarks() {
		row := Row{Name: b}
		for _, r := range sweep[bi] {
			row.Cells = append(row.Cells, ipcCell(r))
			ipcs[b] = append(ipcs[b], r.IPC())
		}
		t.Rows = append(t.Rows, row)
	}
	summarize(t, ipcs, []int{0, 1})
	return t, err
}
