package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"sessionproblem"
	"sessionproblem/internal/alg/async"
	"sessionproblem/internal/alg/periodic"
	"sessionproblem/internal/alg/semisync"
	"sessionproblem/internal/alg/sporadic"
	"sessionproblem/internal/alg/synchronous"
	"sessionproblem/internal/core"
	"sessionproblem/internal/harness"
	"sessionproblem/internal/model"
	"sessionproblem/internal/mp"
	"sessionproblem/internal/sim"
	"sessionproblem/internal/sm"
	"sessionproblem/internal/timing"
	"sessionproblem/internal/trace"
	"sessionproblem/internal/tree"
)

// gridSeeds is the seeds per strategy of every table1-grid call: enough
// that the lockstep seed-batching tier runs at every scale.
const gridSeeds = 32

// gridRuns is the run count of every Table-1 cell at gridSeeds.
var gridRuns = len(timing.AllStrategies()) * gridSeeds

// gridScales are the sessiontable -grid scales in the order that command
// runs them, back to back in one process; every round calls them so. The
// facade fixes a Table-1 matrix's seeds at 1..gridSeeds and takes no seed
// base, so --seed does not change this workload's inputs.
func gridScales() []instance {
	var out []instance
	for _, sc := range harness.DefaultGridScales() {
		p := defaultInstance()
		p.S, p.N = sc.S, sc.N
		out = append(out, p)
	}
	return out
}

func table1(ctx context.Context, p instance) (*sessionproblem.TableResult, error) {
	return sessionproblem.Table1(ctx, sessionproblem.WithSpec(p.S, p.N), sessionproblem.WithSeeds(gridSeeds))
}

// probeTable1 is table1-grid's set-up: the first call, at the smallest grid
// scale, in a fresh process.
func probeTable1(uint64) error {
	p := defaultInstance()
	sc := harness.DefaultGridScales()[0]
	p.S, p.N = sc.S, sc.N
	res, err := table1(context.Background(), p)
	if err != nil {
		return err
	}
	return checkTable(res.Cells, p, gridRuns)
}

// gridOp is one Table1 call: its latency and the facade's accounting.
type gridOp struct {
	p     instance
	lat   time.Duration
	stats sessionproblem.Stats
	cells []sessionproblem.TableCell
}

// gridCall makes one checked Table1 call, a "facade.table1" span under
// parent. Each call pays, as in sessiontable -grid, for collecting the
// garbage of the calls before it.
func gridCall(ctx context.Context, r *result, rec *recorder, parent int, p instance) (gridOp, bool) {
	id := rec.begin("facade.table1", parent)
	t0 := time.Now()
	res, err := table1(ctx, p)
	lat := time.Since(t0)
	rec.end(id)
	check := "facade.Table1"
	if err == nil {
		check, err = "table1.closed-form", checkTable(res.Cells, p, gridRuns)
	}
	if !r.op(check, err) {
		return gridOp{}, false
	}
	return gridOp{p: p, lat: lat, stats: res.Stats, cells: res.Cells}, true
}

// gridRounds runs whole rounds of untraced Table1 calls for the budget,
// handing each call that passed its checks to each, and returns the loop's
// wall time.
func gridRounds(ctx context.Context, e *env, budget time.Duration, each func(op gridOp)) time.Duration {
	off := newRecorder(false)
	return untilDeadline(budget, func(int) {
		for _, p := range gridScales() {
			if op, ok := gridCall(ctx, e.res, off, 0, p); ok {
				each(op)
			}
		}
	})
}

func runTable1(e *env) error {
	ctx := context.Background()
	if e.traced {
		return traceTable1(ctx, e)
	}
	setup, err := probeSetup("table1-grid", e.seed)
	if err != nil {
		return err
	}
	var lat []float64
	var busy time.Duration
	steps := 0
	perScale := map[string][]float64{}
	elapsed := gridRounds(ctx, e, e.seconds, func(op gridOp) {
		ms := float64(op.lat) / 1e6
		lat = append(lat, ms)
		busy += op.lat
		steps += op.stats.Steps
		k := fmt.Sprintf("s=%d n=%d", op.p.S, op.p.N)
		perScale[k] = append(perScale[k], ms)
	})
	rss, err := peakRSS(0)
	if err != nil {
		return err
	}
	r := e.res
	r.set("setup_s", setup)
	r.set("ops_per_s", float64(len(lat))/elapsed.Seconds())
	r.set("sim_steps_per_s", float64(steps)/busy.Seconds())
	r.set("latency_p50_ms", percentile(lat, 0.5))
	r.set("peak_rss_bytes", rss)
	for _, p := range gridScales() {
		k := fmt.Sprintf("s=%d n=%d", p.S, p.N)
		r.infof("table1 %s: median %.3f ms over %d calls", k, median(perScale[k]), len(perScale[k]))
	}
	latencyLines(r, lat)
	return nil
}

// cellDef is one Table-1 cell as the harness lays it out, rebuilt here
// from the public algorithm constructors so the run matrix can be replayed
// outside the engine.
type cellDef struct {
	row, comm string
	sm        core.SMAlgorithm
	mp        core.MPAlgorithm
	spec      core.Spec
	model     timing.Model
	rounds    bool // measured in rounds (asynchronous SM)
}

func cellDefs(p instance) []cellDef {
	c1, c2, d1, d2 := sim.Duration(p.C1), sim.Duration(p.C2), sim.Duration(p.D1), sim.Duration(p.D2)
	smSpec := core.Spec{S: p.S, N: p.N, B: 3}
	mpSpec := core.Spec{S: p.S, N: p.N}
	return []cellDef{
		{row: "synchronous", comm: "SM", sm: synchronous.NewSM(), spec: smSpec, model: timing.NewSynchronous(c2, 0)},
		{row: "synchronous", comm: "MP", mp: synchronous.NewMP(), spec: mpSpec, model: timing.NewSynchronous(c2, d2)},
		{row: "periodic", comm: "SM", sm: periodic.NewSM(), spec: smSpec, model: timing.NewPeriodic(c1, c2, 0)},
		{row: "periodic", comm: "MP", mp: periodic.NewMP(), spec: mpSpec, model: timing.NewPeriodic(c1, c2, d2)},
		{row: "semi-synchronous", comm: "SM", sm: semisync.NewSM(semisync.Auto), spec: smSpec, model: timing.NewSemiSynchronous(c1, c2, 0)},
		{row: "semi-synchronous", comm: "MP", mp: semisync.NewMP(semisync.Auto), spec: mpSpec, model: timing.NewSemiSynchronous(c1, c2, d2)},
		{row: "sporadic", comm: "MP", mp: sporadic.NewMP(), spec: mpSpec, model: timing.NewSporadic(c1, d1, d2, 0)},
		{row: "asynchronous", comm: "SM", sm: async.NewSM(), spec: smSpec, model: timing.NewAsynchronousSM(0), rounds: true},
		{row: "asynchronous", comm: "MP", mp: async.NewMP(), spec: mpSpec, model: timing.NewAsynchronousMP(c2, d2)},
	}
}

// traceTable1 follows every untraced call with a traced call of the same
// scale, so that both see the same machine. A traced call is the same
// facade call inside a span, followed by replays of its run matrix: solo
// core runs (core.solo_s), materialized certification of their traces
// (trace.certify_s), and every run through its executor twice — once
// plain, once with timed scheduler, process and observer wrappers (the
// executor split). The wrapped over the plain executor time is the
// tracing overhead. The runtime figures are those of the untraced calls.
func traceTable1(ctx context.Context, e *env) error {
	r, rec := e.res, e.rec
	var s sessionproblem.Stats
	var mem runtimeDelta
	var peakWords int64
	var merges []float64
	smSteps := 0
	untraced, traced := 0, 0
	rs := new(core.RunScratch)
	mem.start()
	gridRounds(ctx, e, e.seconds, func(plain gridOp) {
		mem.stop()
		untraced++
		root := rec.begin("table1.op", 0)
		if op, ok := gridCall(ctx, r, rec, root, plain.p); ok {
			traced++
			s.Busy += op.stats.Busy
			s.Wall += op.stats.Wall
			s.Parallelism = op.stats.Parallelism
			s.Runs += op.stats.Runs
			s.Steps += op.stats.Steps
			s.BatchLanes += op.stats.BatchLanes
			s.BatchForks += op.stats.BatchForks
			s.BatchFallbacks += op.stats.BatchFallbacks
			for _, c := range op.cells {
				s.Succeeded += c.Runs
			}
			st, err := replayMatrix(ctx, rec, root, op, rs)
			r.fail("table1.replay", err)
			peakWords = max(peakWords, st.peakWords)
			smSteps += st.steps
			merges = append(merges, mergeNS(op.p.N, op.p.S))
		}
		rec.end(root)
		mem.start()
	})
	mem.report(r, untraced)
	n := float64(max(traced, 1))
	r.set("engine.busy_s", s.Busy.Seconds()/n)
	r.set("engine.utilization", s.Busy.Seconds()/(s.Wall.Seconds()*float64(max(s.Parallelism, 1))))
	r.set("engine.tasks", float64(s.Runs)/n)
	r.set("core.runs", float64(s.Succeeded)/n)
	r.set("core.steps", float64(s.Steps)/n)
	r.set("core.batch_lanes", float64(s.BatchLanes)/n)
	r.set("core.batch_forks", float64(s.BatchForks)/n)
	r.set("core.batch_fallbacks", float64(s.BatchFallbacks)/n)
	r.set("core.solo_s", rec.total("core.solo").Seconds()/n)
	r.set("trace.certify_s", rec.total("trace.certify").Seconds()/n)
	r.set("mp.self_s", rec.self("mp.run").Seconds()/n)
	r.set("timing.sched_s", rec.total("timing.sched").Seconds()/n)
	r.set("alg.step_s", rec.total("alg.step").Seconds()/n)
	r.set("sm.self_s", rec.self("sm.run").Seconds()/n)
	r.set("sm.self_ns_per_step", float64(rec.self("sm.run").Nanoseconds())/float64(max(smSteps, 1)))
	r.set("tree.merge_ns", median(merges))
	r.set("tree.knowledge_words_peak", float64(peakWords))
	wrapped := rec.total("sm.run") + rec.total("mp.run")
	bare := rec.total("sm.plain") + rec.total("mp.plain")
	r.set("trace.overhead_ratio", wrapped.Seconds()/bare.Seconds())
	r.infof("table1 traced: %d traced calls, each after its untraced call; executor runs wrapped %.3f s, plain %.3f s", traced, wrapped.Seconds(), bare.Seconds())
	return nil
}

// replayStats is what the shared-memory executor replays of a call saw.
type replayStats struct {
	peakWords int64 // live tree.Knowledge words, peak
	steps     int   // steps executed
}

// replayMatrix replays op's run matrix outside the engine and checks that
// the solo runs reproduce every cell's measured maximum.
func replayMatrix(ctx context.Context, rec *recorder, parent int, op gridOp, rs *core.RunScratch) (replayStats, error) {
	var rsOut replayStats
	for ci, d := range cellDefs(op.p) {
		worst := 0.0
		for _, st := range timing.AllStrategies() {
			for seed := uint64(1); seed <= gridSeeds; seed++ {
				id := rec.begin("core.solo", parent)
				var rep *core.Report
				var err error
				if d.sm != nil {
					rep, err = core.RunSMContext(ctx, d.sm, d.spec, d.model, st, seed)
				} else {
					rep, err = core.RunMPContext(ctx, d.mp, d.spec, d.model, st, seed)
				}
				rec.end(id)
				if err != nil {
					return rsOut, fmt.Errorf("solo %s/%s %v seed %d: %w", d.row, d.comm, st, seed, err)
				}
				v := float64(rep.Finish)
				if d.rounds {
					v = float64(rep.Rounds)
				}
				worst = max(worst, v)
				tr, delays := rep.Trace, []timing.MessageDelay(nil)
				if d.sm != nil {
					res, words, err := replaySM(ctx, rec, parent, d, st, seed, rs, rep)
					if err != nil {
						return rsOut, fmt.Errorf("%s/%s %v seed %d: %w", d.row, d.comm, st, seed, err)
					}
					rsOut.peakWords = max(rsOut.peakWords, words)
					rsOut.steps += len(res.Trace.Steps)
					if res.Finish != rep.Finish {
						return rsOut, fmt.Errorf("%s/%s %v seed %d: sm replay finished at %v, solo run at %v", d.row, d.comm, st, seed, res.Finish, rep.Finish)
					}
				} else {
					res, err := replayMP(ctx, rec, parent, d, st, seed, rs)
					if err != nil {
						return rsOut, err
					}
					if res.Finish != rep.Finish {
						return rsOut, fmt.Errorf("%s/%s %v seed %d: mp replay finished at %v, solo run at %v", d.row, d.comm, st, seed, res.Finish, rep.Finish)
					}
					tr, delays = res.Trace, res.Delays
				}
				if err := certifyTrace(rec, parent, d.model, tr, delays, d.spec.S); err != nil {
					return rsOut, fmt.Errorf("%s/%s %v seed %d: %w", d.row, d.comm, st, seed, err)
				}
			}
		}
		if c := op.cells[ci]; c.Model != d.row || c.Comm != d.comm || c.MeasuredMax != worst {
			return rsOut, fmt.Errorf("cell %s/%s: solo replay max %v, table says %s/%s max %v", d.row, d.comm, worst, c.Model, c.Comm, c.MeasuredMax)
		}
	}
	return rsOut, nil
}

// certifyTrace certifies a materialized trace through the model and trace
// packages and the timing model's admissibility check.
func certifyTrace(rec *recorder, parent int, m timing.Model, tr *model.Trace, delays []timing.MessageDelay, s int) error {
	id := rec.begin("trace.certify", parent)
	err := m.CheckAdmissible(tr, delays)
	sessions := tr.CountSessions()
	spans := trace.Sessions(tr)
	tr.CountRounds()
	tr.Gamma()
	rec.end(id)
	if err != nil {
		return err
	}
	if sessions < s || len(spans) != sessions {
		return fmt.Errorf("certified %d sessions with %d spans, want at least %d", sessions, len(spans), s)
	}
	return nil
}

// replaySM runs one shared-memory cell through sm.RunContext twice: plain,
// as an "sm.plain" span, and wrapped (wrappedSM) with this package's
// observer. Both must finish with the solo run; the observer's session
// counter must agree with it, and it reports the peak of live
// tree.Knowledge words (the relay-tree and semi-synchronous cells keep
// their state in them).
func replaySM(ctx context.Context, rec *recorder, parent int, d cellDef, st timing.Strategy, seed uint64, rs *core.RunScratch, solo *core.Report) (*sm.Result, int64, error) {
	opts := sm.Options{WindowHint: d.model.MaxIncrement(), Scratch: &rs.SM}
	sys, err := d.sm.BuildSM(d.spec, d.model)
	if err != nil {
		return nil, 0, err
	}
	id := rec.begin("sm.plain", parent)
	res, err := sm.RunContext(ctx, sys, d.model.NewScheduler(st, seed), opts)
	rec.end(id)
	if err != nil {
		return nil, 0, err
	}
	plainFinish := res.Finish
	if sys, err = d.sm.BuildSM(d.spec, d.model); err != nil {
		return nil, 0, err
	}
	mine := &benchObserver{sessions: newSessionCounter(len(sys.Ports))}
	res, err = wrappedSM(ctx, rec, parent, sys, d.model.NewScheduler(st, seed), opts, probe{"bench.observe", mine})
	if err != nil {
		return nil, 0, err
	}
	if res.Finish != plainFinish {
		return nil, 0, fmt.Errorf("wrapped run finished at %v, plain run at %v", res.Finish, plainFinish)
	}
	if mine.sessions.closed != solo.Sessions {
		return nil, 0, fmt.Errorf("session counter found %d sessions, the solo run %d", mine.sessions.closed, solo.Sessions)
	}
	return res, mine.peakWords, nil
}

// benchObserver is this package's observer of a traced shared-memory run:
// the session counter, and the peak of live tree.Knowledge words.
type benchObserver struct {
	sessions  *sessionCounter
	peakWords int64
}

func (b *benchObserver) ObserveStep(s model.Step) {
	b.sessions.ObserveStep(s)
	b.peakWords = max(b.peakWords, tree.KnowledgeWords())
}

// mergeNS times Knowledge.MergeFrom at a call's width: two n-lane values
// with lanes drawn from 0..s, merged into each other in turn.
func mergeNS(n, s int) float64 {
	rng := rand.New(rand.NewPCG(uint64(n), uint64(s)))
	a, b := tree.NewKnowledge(n), tree.NewKnowledge(n)
	for p := 0; p < n; p++ {
		a.Raise(p, rng.IntN(s+1))
		b.Raise(p, rng.IntN(s+1))
	}
	const merges = 200_000
	t0 := time.Now()
	for i := 0; i < merges; i++ {
		if i%2 == 0 {
			a.MergeFrom(b)
		} else {
			b.MergeFrom(a)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / merges
}

// replayMP runs one message-passing cell through mp.RunContext twice:
// plain, as an "mp.plain" span, and with the scheduler and every process
// wrapped in samplers, as an "mp.run" span whose sampled children are the
// estimates, so that its self time is the executor's own. It returns the
// wrapped run's result, which must finish with the plain one.
func replayMP(ctx context.Context, rec *recorder, parent int, d cellDef, st timing.Strategy, seed uint64, rs *core.RunScratch) (*mp.Result, error) {
	opts := mp.Options{WindowHint: d.model.MaxIncrement(), Scratch: &rs.MP}
	sys, err := d.mp.BuildMP(d.spec, d.model)
	if err != nil {
		return nil, err
	}
	id := rec.begin("mp.plain", parent)
	res, err := mp.RunContext(ctx, sys, d.model.NewScheduler(st, seed), opts)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	plainFinish := res.Finish
	if sys, err = d.mp.BuildMP(d.spec, d.model); err != nil {
		return nil, err
	}
	var gap, delay sampler
	var procs procSamplers
	for i, p := range sys.Procs {
		sys.Procs[i] = timedMPProc{p, &procs}
	}
	id = rec.begin("mp.run", parent)
	res, err = mp.RunContext(ctx, sys, timedMPSched{d.model.NewScheduler(st, seed), &gap, &delay}, opts)
	rec.end(id)
	rec.sampled("timing.sched", id, gap.estimate()+delay.estimate())
	rec.sampled("alg.step", id, procs.estimate())
	if err == nil && res.Finish != plainFinish {
		err = fmt.Errorf("wrapped run finished at %v, plain run at %v", res.Finish, plainFinish)
	}
	return res, err
}

type timedMPSched struct {
	inner mp.Scheduler
	gap   *sampler
	delay *sampler
}

func (t timedMPSched) Gap(p int) sim.Duration {
	if !t.gap.sample() {
		return t.inner.Gap(p)
	}
	t0 := time.Now()
	d := t.inner.Gap(p)
	t.gap.add(t0)
	return d
}

func (t timedMPSched) Delay(src, dst int) sim.Duration {
	if !t.delay.sample() {
		return t.inner.Delay(src, dst)
	}
	t0 := time.Now()
	d := t.inner.Delay(src, dst)
	t.delay.add(t0)
	return d
}

type timedMPProc struct {
	inner mp.Process
	s     *procSamplers
}

func (t timedMPProc) Step(received []mp.Message) any {
	if !t.s.step.sample() {
		return t.inner.Step(received)
	}
	t0 := time.Now()
	v := t.inner.Step(received)
	t.s.step.add(t0)
	return v
}

func (t timedMPProc) Idle() bool {
	if !t.s.idle.sample() {
		return t.inner.Idle()
	}
	t0 := time.Now()
	v := t.inner.Idle()
	t.s.idle.add(t0)
	return v
}
