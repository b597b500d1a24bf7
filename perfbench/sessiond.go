package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"sessionproblem"
	"sessionproblem/internal/core"
	"sessionproblem/internal/diskcache"
	"sessionproblem/internal/engine"
	"sessionproblem/internal/journal"
	"sessionproblem/internal/timing"
	"sessionproblem/wire"
)

// request is the body of a daemon request. Every field is sent, so the
// daemon applies no defaults the in-process replay would have to guess.
type request struct {
	S           int    `json:"s"`
	N           int    `json:"n"`
	B           int    `json:"b"`
	C1          int64  `json:"c1"`
	C2          int64  `json:"c2"`
	D1          int64  `json:"d1"`
	D2          int64  `json:"d2"`
	Seeds       int    `json:"seeds"`
	Kind        string `json:"kind,omitempty"`
	Steps       int    `json:"steps"`
	MaxSessions int    `json:"maxSessions"`
	Model       string `json:"model"`
	Comm        string `json:"comm"`
	Strategy    string `json:"strategy"`
	Seed        uint64 `json:"seed"`
	Journal     string `json:"journal,omitempty"`
}

// call is one request of the traffic mix.
type call struct {
	endpoint string // "solve", "table1" or "sweep"
	rq       request
	fresh    bool     // a solve whose key no earlier request used
	prior    *outcome // for a repeated solve: the fresh call's outcome
	traced   bool     // recorded as a span
}

// class names the call's kind for the per-class latency lines.
func (c call) class() string {
	k := c.endpoint
	switch {
	case c.endpoint != "solve":
	case c.fresh:
		k += "-fresh"
	default:
		k += "-repeat"
	}
	if c.rq.Journal != "" {
		k += "-journaled"
	}
	return k
}

// defaultSeeds is the library's default number of seeds per strategy.
const defaultSeeds = 3

func newRequest(p instance, seeds int) request {
	return request{
		S: p.S, N: p.N, B: 3, C1: p.C1, C2: p.C2, D1: p.D1, D2: p.D2, Seeds: seeds,
		Steps: 9, MaxSessions: 10, Model: "periodic", Comm: "mp", Strategy: "random", Seed: 1,
	}
}

func (rq request) instance() instance {
	return instance{S: rq.S, N: rq.N, C1: rq.C1, C2: rq.C2, D1: rq.D1, D2: rq.D2}
}

// solveCells are the nine Table-1 cells as Solve names them.
var solveCells = []struct{ model, comm string }{
	{"synchronous", "sm"}, {"synchronous", "mp"}, {"periodic", "sm"}, {"periodic", "mp"},
	{"semisync", "sm"}, {"semisync", "mp"}, {"sporadic", "mp"}, {"async", "sm"}, {"async", "mp"},
}

// The traffic's analysis requests are those of README.md's service
// example: Table 1 at s=2, n=2 with one seed, and the sporadic-delay sweep
// at five steps, both otherwise at the defaults.
func tableCall(journaled bool) call {
	p := defaultInstance()
	p.S, p.N = 2, 2
	c := call{endpoint: "table1", rq: newRequest(p, 1)}
	if journaled {
		c.rq.Journal = "table1"
	}
	return c
}

func sweepCall(journaled bool) call {
	rq := newRequest(defaultInstance(), defaultSeeds)
	rq.Kind, rq.Steps = "sporadic-delay", 5
	c := call{endpoint: "sweep", rq: rq}
	if journaled {
		c.rq.Journal = "sweep"
	}
	return c
}

// A round is 8 requests in a seeded order: freshPerRound solves of new
// keys, repeatPerRound solves of completed keys, the Table-1 request and
// the sweep. The mix is the workload's specification made concrete, not
// fitted to the figures: most requests are solves, some of them repeats of
// earlier keys (cache reads) and the rest fresh (a simulation and a disk
// write); a minority are analysis requests, some of them journaled — here
// one of the two in every round, in turn, so every round replays a
// journal. Fresh solves outnumber repeats two to one, so the median
// request is a fresh solve of the daemon's default instance, what a "{}"
// body asks for.
const (
	freshPerRound  = 4
	repeatPerRound = 2
	roundSize      = freshPerRound + repeatPerRound + 2
	warmFresh      = 4
	traceBlock     = 8 // rounds per block of a traced run
)

// traffic generates the request mix from the seed.
type traffic struct {
	seed   uint64
	nFresh int    // fresh solves generated so far
	fresh  []done // completed fresh solves, in completion order
	traced bool   // trace every other block of rounds
}

// done is a completed call with its outcome.
type done struct {
	c call
	o *outcome
}

// freshSolve is the next fresh solve at the daemon's default instance: the
// nine cells and five strategies in turn, each with a schedule seed no
// earlier call used.
func (t *traffic) freshSolve() call {
	k := t.nFresh
	t.nFresh++
	cell := solveCells[k%len(solveCells)]
	rq := newRequest(defaultInstance(), defaultSeeds)
	rq.Model, rq.Comm = cell.model, cell.comm
	rq.Strategy = timing.AllStrategies()[(k/len(solveCells))%len(timing.AllStrategies())].String()
	rq.Seed = t.seed*1_000_003 + uint64(k) + 1
	return call{endpoint: "solve", rq: rq, fresh: true}
}

// warmup is the traffic before measuring: both analysis requests once,
// journaled, and warmFresh fresh solves for the first round to repeat.
func (t *traffic) warmup() []call {
	out := []call{tableCall(true), sweepCall(true)}
	for i := 0; i < warmFresh; i++ {
		out = append(out, t.freshSolve())
	}
	return out
}

// round returns round r's calls. Repeats draw from the fresh solves that
// have completed; the Table-1 request replays its journal in even rounds,
// the sweep in odd ones.
func (t *traffic) round(r int) []call {
	rng := rand.New(rand.NewPCG(t.seed, uint64(r)))
	var out []call
	for i := 0; i < freshPerRound; i++ {
		out = append(out, t.freshSolve())
	}
	for i := 0; i < repeatPerRound; i++ {
		f := t.fresh[rng.IntN(len(t.fresh))]
		c := f.c
		c.fresh, c.prior = false, f.o
		out = append(out, c)
	}
	out = append(out, tableCall(r%2 == 0), sweepCall(r%2 == 1))
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	for i := range out {
		// Blocks of traceBlock rounds, so that traced and untraced rounds
		// hold the same requests.
		out[i].traced = t.traced && (r/traceBlock)%2 == 1
	}
	return out
}

// daemon is one sessiond process on fresh cache and journal directories.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	done   chan error
}

func startDaemon(bin, dir string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no sessiond binary (--sessiond)")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-cache-dir", filepath.Join(dir, "cache"), "-journal-dir", filepath.Join(dir, "journal"))
	log, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	defer log.Close()
	cmd.Stderr = log
	// The daemon must not outlive the benchmark, even one that crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{
		cmd: cmd, base: "http://" + addr, done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU(), MaxConnsPerHost: runtime.NumCPU()}},
	}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/v1/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			data, _ := os.ReadFile(dir + ".log")
			return nil, fmt.Errorf("sessiond exited before serving: %v\n%s", err, data)
		case <-time.After(200 * time.Microsecond): // fine enough for a start of ~10 ms
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("sessiond did not serve within 20s")
		}
	}
}

// stop shuts the daemon down and waits for it to exit.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) post(endpoint string, rq request) ([]byte, int, error) {
	body, err := json.Marshal(rq)
	if err != nil {
		return nil, 0, err
	}
	resp, err := d.client.Post(d.base+"/v1/"+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// daemonStats is the part of GET /v1/stats the benchmark reads.
type daemonStats struct {
	Cache diskcache.Stats `json:"cache"`
	Batch struct {
		Lanes int64 `json:"lanes"`
	} `json:"batch"`
	Mem struct {
		HeapInuseBytes uint64 `json:"heapInuseBytes"`
	} `json:"mem"`
}

func (d *daemon) stats() (daemonStats, error) {
	var st daemonStats
	resp, err := d.client.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// outcome is one completed call.
type outcome struct {
	lat    time.Duration
	status int
	body   []byte
	err    error // transport error
	steps  int   // simulated steps of a fresh solve, once checked
}

// checkResponse decodes a response and checks it, returning the name of
// the failed check.
func checkResponse(c call, status int, body []byte, prior []byte) (int, string, error) {
	if status != http.StatusOK {
		return 0, "http.status", fmt.Errorf("%s: HTTP %d: %s", c.endpoint, status, strings.TrimSpace(string(body)))
	}
	switch c.endpoint {
	case "solve":
		rep, err := wire.UnmarshalReport(body)
		if err != nil {
			return 0, "wire.decode", err
		}
		if err := checkSolve(rep, sessionproblem.Model(c.rq.Model), sessionproblem.Comm(c.rq.Comm), c.rq.instance()); err != nil {
			return 0, "solve.closed-form", fmt.Errorf("%s/%s seed %d: %w", c.rq.Model, c.rq.Comm, c.rq.Seed, err)
		}
		if prior != nil && !bytes.Equal(prior, body) {
			return 0, "solve.repeat-identical", fmt.Errorf("repeat of %s/%s seed %d differs from the first response", c.rq.Model, c.rq.Comm, c.rq.Seed)
		}
		return rep.Steps, "", nil
	case "table1":
		cells, err := wire.UnmarshalTable(body)
		if err != nil {
			return 0, "wire.decode", err
		}
		if err := checkTable(cells, c.rq.instance(), len(timing.AllStrategies())*c.rq.Seeds); err != nil {
			return 0, "table1.closed-form", err
		}
	case "sweep":
		pts, err := wire.UnmarshalSweep(body)
		if err != nil {
			return 0, "wire.decode", err
		}
		if len(pts) == 0 {
			return 0, "sweep.points", errors.New("sweep returned no points")
		}
	}
	return 0, "", nil
}

// session is one daemon's traffic: warm-up from one client, then rounds
// from runtime.NumCPU() closed-loop clients for the budget.
type session struct {
	d        *daemon
	t        *traffic
	res      *result
	rec      *recorder
	mu       sync.Mutex // guards every field below and res
	issued   []call
	outcomes []*outcome
	queue    []int // issued calls no client has taken yet
	measured int   // index of the first measured call
	elapsed  time.Duration
	rss      float64 // daemon peak RSS after rssRounds rounds
	rssErr   error
}

// drive sends calls from the given number of closed-loop clients and
// records the answers; check checks them afterwards, so the clients spend
// no processor time the daemon could use. When the queue runs dry, the
// next client to ask calls more for another round, under the session's
// lock; nil ends the drive once every call in flight is answered. Clients
// never wait for each other between rounds.
func (s *session) drive(clients int, more func() []call) {
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, o, ok := s.take(more)
				if !ok {
					return
				}
				span := 0
				if c.traced {
					span = s.rec.begin("http."+c.endpoint, 0)
				}
				t0 := time.Now()
				body, status, err := s.d.post(c.endpoint, c.rq)
				o.lat = time.Since(t0)
				s.rec.end(span)
				o.body, o.status, o.err = body, status, err
				if c.fresh && err == nil && status == http.StatusOK {
					s.mu.Lock()
					s.t.fresh = append(s.t.fresh, done{c, o})
					s.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
}

// take hands a client the next call and its outcome slot.
func (s *session) take(more func() []call) (call, *outcome, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 && more != nil {
		for _, c := range more() {
			s.queue = append(s.queue, len(s.issued))
			s.issued = append(s.issued, c)
			s.outcomes = append(s.outcomes, &outcome{})
		}
	}
	if len(s.queue) == 0 {
		return call{}, nil, false
	}
	k := s.queue[0]
	s.queue = s.queue[1:]
	return s.issued[k], s.outcomes[k], true
}

// rssRounds is the round after which the daemon's peak RSS is read: the
// daemon keeps every summary it computed, so its memory grows with the
// requests served, and a peak read at a fixed amount of work does not move
// with the daemon's speed.
const rssRounds = 100

func (s *session) run(ctx context.Context, budget time.Duration) error {
	warm := s.t.warmup()
	s.drive(1, func() []call { c := warm; warm = nil; return c })
	s.measured = len(s.issued)
	t0 := time.Now()
	r := 0
	s.drive(runtime.NumCPU(), func() []call {
		if (r > 0 && time.Since(t0) >= budget) || ctx.Err() != nil {
			return nil
		}
		if r == rssRounds {
			s.rss, s.rssErr = peakRSS(s.d.cmd.Process.Pid)
		}
		r++
		return s.t.round(r - 1)
	})
	s.elapsed = time.Since(t0)
	if r <= rssRounds {
		s.rss, s.rssErr = peakRSS(s.d.cmd.Process.Pid)
	}
	s.check()
	return ctx.Err()
}

// check checks every answered call in issue order and counts it.
func (s *session) check() {
	for i, c := range s.issued {
		o := s.outcomes[i]
		check, err := "http.request", o.err
		if err == nil {
			var prior []byte
			if c.prior != nil {
				prior = c.prior.body
			}
			o.steps, check, err = checkResponse(c, o.status, o.body, prior)
		}
		s.res.op(check, err)
	}
}

// latencies returns the measured calls' latencies in ms, and the simulated
// steps per second of the fresh solves.
func (s *session) latencies() ([]float64, float64) {
	var ms []float64
	steps, busy := 0, 0.0
	for i := s.measured; i < len(s.outcomes); i++ {
		o := *s.outcomes[i]
		ms = append(ms, float64(o.lat)/1e6)
		if s.issued[i].fresh {
			steps += o.steps
			busy += o.lat.Seconds()
		}
	}
	return ms, float64(steps) / busy
}

// startSession starts a daemon under dir and runs the traffic for the
// run's budget, with every other block of rounds traced when traced is
// set. The daemon is left running for the caller to read and stop.
func startSession(ctx context.Context, e *env, dir string, traced bool) (*session, error) {
	d, err := startDaemon(e.sessiond, dir)
	if err != nil {
		return nil, err
	}
	s := &session{d: d, t: &traffic{seed: e.seed, traced: traced}, res: e.res, rec: e.rec}
	if err := s.run(ctx, e.seconds); err != nil {
		d.stop()
		return nil, err
	}
	return s, nil
}

// setupDaemon times setupRepeats daemon starts on fresh directories, each
// until the daemon has answered its first request — the default solve, a
// simulation and a disk write — and returns the median in seconds.
func setupDaemon(e *env) (float64, error) {
	var ts []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		d, err := startDaemon(e.sessiond, filepath.Join(e.work, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return 0, err
		}
		body, status, err := d.post("solve", newRequest(defaultInstance(), defaultSeeds))
		ts = append(ts, time.Since(t0).Seconds())
		d.stop()
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("first solve: HTTP %d: %s", status, strings.TrimSpace(string(body)))
		}
		if err != nil {
			return 0, err
		}
	}
	return median(ts), nil
}

func runSessiond(e *env) error {
	ctx := context.Background()
	if e.traced {
		return traceSessiond(ctx, e)
	}
	setup, err := setupDaemon(e)
	if err != nil {
		return err
	}
	s, err := startSession(ctx, e, filepath.Join(e.work, "daemon"), false)
	if err != nil {
		return err
	}
	s.d.stop()
	if s.rssErr != nil {
		return s.rssErr
	}
	ms, stepsPerS := s.latencies()
	r := e.res
	r.set("setup_s", setup)
	r.set("ops_per_s", float64(len(ms))/s.elapsed.Seconds())
	r.set("sim_steps_per_s", stepsPerS)
	r.set("latency_p50_ms", percentile(ms, 0.5))
	r.set("peak_rss_bytes", s.rss)
	r.infof("sessiond-mixed: %d measured requests (%d rounds of %d) after %d warm-up", len(ms), len(ms)/roundSize, roundSize, s.measured)
	latencyLines(r, ms)
	classes := map[string][]float64{}
	var names []string
	for i := s.measured; i < len(s.issued); i++ {
		k := s.issued[i].class()
		if classes[k] == nil {
			names = append(names, k)
		}
		classes[k] = append(classes[k], float64(s.outcomes[i].lat)/1e6)
	}
	sort.Strings(names)
	for _, k := range names {
		sum := 0.0
		for _, x := range classes[k] {
			sum += x
		}
		r.infof("  %-18s %5d requests, median %.3f ms, %.1f%% of request time", k, len(classes[k]), median(classes[k]), 100*sum/(s.elapsed.Seconds()*1e3*float64(runtime.NumCPU())))
	}
	return byteSample(ctx, s, r)
}

// byteSample compares the warm-up and first-round responses, byte for
// byte, with the facade's output for the same requests.
func byteSample(ctx context.Context, s *session, r *result) error {
	n := min(len(s.issued), s.measured+16)
	for i := 0; i < n; i++ {
		c, o := s.issued[i], s.outcomes[i]
		if o.body == nil {
			continue
		}
		want, err := facadeCall(ctx, newRecorder(false), 0, c, nil, "")
		if err == nil && !bytes.Equal(o.body, want) {
			err = fmt.Errorf("%s %+v: daemon and facade bytes differ", c.endpoint, c.rq)
		}
		r.fail("sessiond.byte-identity", err)
	}
	return nil
}

// facadeCall makes the daemon's facade call for c in process and returns
// the response bytes the daemon would send.
// The wire encoding is a "wire.encode" span under parent.
func facadeCall(ctx context.Context, rec *recorder, parent int, c call, cache sessionproblem.RunCacher, journalDir string) ([]byte, error) {
	rq := c.rq
	opts := []sessionproblem.Option{
		sessionproblem.WithSpec(rq.S, rq.N),
		sessionproblem.WithAccessBound(rq.B),
		sessionproblem.WithStepBounds(rq.C1, rq.C2),
		sessionproblem.WithDelayBounds(rq.D1, rq.D2),
		sessionproblem.WithSeeds(rq.Seeds),
		sessionproblem.WithSweepSteps(rq.Steps),
		sessionproblem.WithMaxSessions(rq.MaxSessions),
		sessionproblem.WithSchedule(rq.Strategy, rq.Seed),
	}
	if cache != nil {
		opts = append(opts, sessionproblem.WithRunCache(cache))
	}
	if rq.Journal != "" && journalDir != "" {
		opts = append(opts, sessionproblem.WithJournal(filepath.Join(journalDir, rq.Journal+".journal")))
	}
	var data []byte
	var err error
	switch c.endpoint {
	case "solve":
		var rep *sessionproblem.Report
		if rep, err = sessionproblem.Solve(ctx, sessionproblem.Model(rq.Model), sessionproblem.Comm(rq.Comm), opts...); err == nil {
			id := rec.begin("wire.encode", parent)
			data, err = wire.MarshalReport(rep)
			rec.end(id)
		}
	case "table1":
		var res *sessionproblem.TableResult
		if res, err = sessionproblem.Table1(ctx, opts...); err == nil {
			id := rec.begin("wire.encode", parent)
			data, err = wire.MarshalTable(res.Cells)
			rec.end(id)
		}
	case "sweep":
		kind := map[string]sessionproblem.SweepKind{
			"sporadic-delay":       sessionproblem.SweepSporadicDelay,
			"periodic-vs-semisync": sessionproblem.SweepPeriodicVsSemiSync,
		}[rq.Kind]
		var res *sessionproblem.SweepResult
		if res, err = sessionproblem.Sweep(ctx, kind, opts...); err == nil {
			id := rec.begin("wire.encode", parent)
			data, err = wire.MarshalSweep(res.Points)
			rec.end(id)
		}
	}
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// traceSessiond runs the traffic against one daemon with a span around
// every request of every other block of rounds, then
// replays the second daemon's request sequence in process through the
// facade on a fresh cache of the same kind, and finally times the
// summary codec, the disk store and the journal on the traffic's own keys.
func traceSessiond(ctx context.Context, e *env) error {
	r := e.res
	s, err := startSession(ctx, e, filepath.Join(e.work, "daemon"), true)
	if err != nil {
		return err
	}
	st, err := s.d.stats()
	s.d.stop()
	if err != nil {
		return err
	}
	var plain, traced []float64
	for i := s.measured; i < len(s.issued); i++ {
		ms := float64(s.outcomes[i].lat) / 1e6
		if s.issued[i].traced {
			traced = append(traced, ms)
		} else {
			plain = append(plain, ms)
		}
	}
	r.set("cache.hits", float64(st.Cache.Hits))
	r.set("cache.misses", float64(st.Cache.Misses))
	r.set("cache.hit_ratio", float64(st.Cache.Hits)/float64(max(st.Cache.Hits+st.Cache.Misses, 1)))
	r.set("diskcache.disk_hits", float64(st.Cache.DiskHits))
	r.set("sessiond.batch_lanes", float64(st.Batch.Lanes))
	r.set("sessiond.heap_inuse_bytes", float64(st.Mem.HeapInuseBytes))
	r.set("trace.overhead_ratio", percentile(traced, 0.5)/percentile(plain, 0.5))
	if err := replayFacade(ctx, e, s); err != nil {
		return err
	}
	if err := timeStores(ctx, e, s); err != nil {
		return err
	}
	r.infof("sessiond-mixed traced: %d traced and %d untraced measured requests, alternate blocks of %d rounds", len(traced), len(plain), traceBlock)
	return nil
}

// replayCalls bounds the measured calls the in-process replay covers.
const replayCalls = 4000

// replayFacade replays the warm-up and the first replayCalls measured
// calls of a session, in issue order, through the facade on a fresh
// two-tier cache and journal directory, as the daemon holds them. Each
// replayed response must match the daemon's bytes.
func replayFacade(ctx context.Context, e *env, s *session) error {
	r, rec := e.res, e.rec
	dir := filepath.Join(e.work, "replay")
	cache, err := diskcache.NewSummaryCache(engine.NewRunCache(), filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	jdir := filepath.Join(dir, "journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return err
	}
	var over, enc []float64
	var mem runtimeDelta
	mem.start()
	calls := s.issued[:min(len(s.issued), s.measured+replayCalls)]
	for i, c := range calls {
		id := rec.begin("facade."+c.endpoint, 0)
		t0 := time.Now()
		data, err := facadeCall(ctx, rec, id, c, cache, jdir)
		d := time.Since(t0) - rec.childTotal(id, "wire.encode")
		rec.end(id)
		if err == nil && s.outcomes[i].body != nil && !bytes.Equal(data, s.outcomes[i].body) {
			err = fmt.Errorf("%s %+v: daemon and facade bytes differ", c.endpoint, c.rq)
		}
		r.fail("sessiond.byte-identity", err)
		if i >= s.measured {
			over = append(over, float64(s.outcomes[i].lat-d)/1e6)
		}
	}
	mem.report(r, len(calls))
	for _, x := range rec.durations("wire.encode") {
		enc = append(enc, x*1e6)
	}
	r.set("sessiond.overhead_ms_p50", percentile(over, 0.5))
	r.set("wire.encode_us_p50", percentile(enc, 0.5))
	return nil
}

// storeSamples bounds how many of the traffic's fresh solves the codec,
// disk store and journal are timed on.
const storeSamples = 64

// lastPut is a run cache that remembers the last summary put in it and
// its key. Handed to the facade's Solve, it yields the key and summary the
// daemon stores for the same request.
type lastPut struct {
	*engine.RunCache
	key string
	sum *core.RunSummary
}

func (l *lastPut) Put(key string, v any) {
	l.key, l.sum = key, v.(*core.RunSummary)
	l.RunCache.Put(key, v)
}

// timeStores reruns a sample of the session's fresh solves through the
// facade and times EncodeSummary, DecodeSummary, diskcache Put and Get,
// and journal Append on the summaries under the keys Solve stored them.
func timeStores(ctx context.Context, e *env, s *session) error {
	r, rec := e.res, e.rec
	dir := filepath.Join(e.work, "stores")
	store, err := diskcache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	jw, _, err := journal.Open(filepath.Join(dir, "timed.journal"))
	if err != nil {
		return err
	}
	defer jw.Close()
	var enc, dec, put, get, app []float64
	us := func(name string, f func() error) (float64, error) {
		id := rec.begin(name, 0)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		rec.end(id)
		return float64(d) / 1e3, err
	}
	n := 0
	for i, c := range s.issued {
		if !c.fresh || n == storeSamples || i < s.measured {
			continue
		}
		n++
		last := &lastPut{RunCache: engine.NewRunCache()}
		if _, err := facadeCall(ctx, newRecorder(false), 0, c, last, ""); err != nil || last.sum == nil {
			r.fail("facade.Solve", fmt.Errorf("%s/%s seed %d: no summary stored (%v)", c.rq.Model, c.rq.Comm, c.rq.Seed, err))
			continue
		}
		key, sum := last.key, last.sum
		var data []byte
		var back *core.RunSummary
		var got []byte
		var ok bool
		t, err := us("core.encode_summary", func() (err error) { data, err = core.EncodeSummary(sum); return err })
		enc = append(enc, t)
		if err == nil {
			t, err = us("core.decode_summary", func() (err error) { back, err = core.DecodeSummary(data); return err })
			dec = append(dec, t)
		}
		if err == nil && !reflect.DeepEqual(back, sum) {
			err = errors.New("summary changed in an encode/decode round trip")
		}
		if err == nil {
			t, err = us("diskcache.put", func() error { return store.Put(key, data) })
			put = append(put, t)
		}
		if err == nil {
			t, _ = us("diskcache.get", func() error { got, ok = store.Get(key); return nil })
			get = append(get, t)
			if !ok || !bytes.Equal(got, data) {
				err = errors.New("disk store returned other bytes than were put")
			}
		}
		if err == nil {
			t, err = us("journal.append", func() error { return jw.Append(key, data) })
			app = append(app, t)
		}
		r.fail("sessiond.stores", err)
	}
	r.set("core.encode_summary_us", percentile(enc, 0.5))
	r.set("core.decode_summary_us", percentile(dec, 0.5))
	r.set("diskcache.put_us_p50", percentile(put, 0.5))
	r.set("diskcache.get_us_p50", percentile(get, 0.5))
	r.set("journal.append_us_p50", percentile(app, 0.5))
	return jw.Close()
}
