package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"taopt/internal/export"
	"taopt/internal/harness"
	"taopt/internal/harness/fleet"
	"taopt/internal/scenario"
	"taopt/internal/service"
)

// The service workload's fixed load parameters. Hits are re-submits of the
// warm set under new names; misses are warm documents with a new seed.
//
// A run spends its seconds in three phases: closed-loop hit passes
// (passShare), the open-loop reference phase (refShare) and the rate ladder
// (the rest, split evenly over its rates).
const (
	// hitsPerPass is the closed-loop pass: this many hits (submit + export
	// GET) over the warm set, on nproc client connections.
	hitsPerPass = 64
	// refRate is the reference arrival rate (requests/s) of the open-loop
	// phase, where one request in missEvery is a miss. Misses are submitted
	// without waiting, so their compute competes with the hits for the
	// server's cores but holds no client connection.
	refRate   = 12
	missEvery = 25
	passShare = 0.2
	refShare  = 0.6
	// hitLimit is the latency limit a ladder rate's tail must meet.
	hitLimit = 250 * time.Millisecond
)

// ladderRates are the fixed open-loop hit rates (requests/s) tried for
// max_hit_rate, lowest first.
var ladderRates = []float64{8, 16, 32}

// serviceSpecs is the warm set: four run documents over apps of different
// sizes, all three tools and all three settings.
func serviceSpecs(r *run) []probeSpec {
	return []probeSpec{
		{App: "Filters For Selfie", Tool: "monkey", Setting: "taopt-duration", Seed: r.seedFor(0)},
		{App: "Marvel Comics", Tool: "ape", Setting: "baseline", Seed: r.seedFor(1)},
		{App: "Sketch", Tool: "wctester", Setting: "taopt-resource", Seed: r.seedFor(2)},
		{App: "Google Translate", Tool: "monkey", Setting: "taopt-duration", Seed: r.seedFor(3)},
	}
}

// svcClient speaks taoptd's HTTP API on at most conns connections.
type svcClient struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *svcClient {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &svcClient{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *svcClient) close() { c.hc.CloseIdleConnections() }

// submitted is the part of a submit response the benchmark reads.
type submitted struct {
	ID         string `json:"id"`
	ConfigHash string `json:"configHash"`
	State      string `json:"state"`
	Cache      string `json:"-"`
}

// submit POSTs a run document, with ?wait=1 when wait is set; a waited
// submit must come back done.
func (c *svcClient) submit(doc []byte, wait bool) (submitted, error) {
	var s submitted
	url := c.base + "/v1/runs"
	if wait {
		url += "?wait=1"
	}
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(doc))
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return s, err
	}
	if resp.StatusCode/100 != 2 {
		return s, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return s, fmt.Errorf("submit: %w", err)
	}
	if wait && s.State != "done" {
		return s, fmt.Errorf("submit: run %s ended %s", s.ID, s.State)
	}
	s.Cache = resp.Header.Get("X-Taopt-Cache")
	return s, nil
}

// settle waits for run id to finish and checks that it is done.
func (c *svcClient) settle(id string) error {
	body, err := c.get("/v1/runs/" + id + "?wait=1")
	if err != nil {
		return err
	}
	var rec struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		return err
	}
	if rec.State != "done" {
		return fmt.Errorf("run %s ended %s", id, rec.State)
	}
	return nil
}

// get fetches a path's body.
func (c *svcClient) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// hitRatio reads the service's cache counters.
func (c *svcClient) hitRatio() (float64, error) {
	body, err := c.get("/v1/stats")
	if err != nil {
		return 0, err
	}
	var st struct {
		Stats service.Stats `json:"stats"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, err
	}
	if st.Stats.Submitted == 0 {
		return 0, nil
	}
	return float64(st.Stats.CacheHits) / float64(st.Stats.Submitted), nil
}

// warmDoc is one document of the warm set with the sha256 of its export as
// an offline compute produces it.
type warmDoc struct {
	spec probeSpec
	hash string // the service's cache key, from the miss that warmed it
	want [32]byte
}

// hit re-submits w under name and fetches the export, checking that the
// submit was a cache hit and the export equals the offline one. Spans go to
// tr under parent with request id req.
func (r *run) hit(c *svcClient, w warmDoc, name string, tr *Tracer, parent, req int) error {
	sp := tr.Begin("service.submit_hit", parent, req)
	s, err := c.submit(r.runDoc(w.spec, name), true)
	tr.End(sp, 1)
	if err != nil {
		return err
	}
	if s.Cache != "hit" {
		return fmt.Errorf("%s: X-Taopt-Cache %q, want hit", name, s.Cache)
	}
	sp = tr.Begin("service.export_get", parent, req)
	exp, err := c.get("/v1/runs/" + s.ID + "/export")
	tr.End(sp, 1)
	if err != nil {
		return err
	}
	if sha256.Sum256(exp) != w.want {
		return fmt.Errorf("%s: served export differs from the offline compute", name)
	}
	return nil
}

// hitPass sends n hits over the warm set, closed loop on nproc goroutines.
func (r *run) hitPass(c *svcClient, warmSet []warmDoc, n, pass int, tr *Tracer, parent int) {
	var next sync.Mutex
	k := 0
	errs := make([]error, n)
	forks := make([]*Tracer, r.workers)
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		forks[w] = tr.Fork(parent)
		wg.Add(1)
		go func(ftr *Tracer) {
			defer wg.Done()
			for {
				next.Lock()
				i := k
				k++
				next.Unlock()
				if i >= n {
					return
				}
				errs[i] = r.hit(c, warmSet[i%len(warmSet)], fmt.Sprintf("perfbench hit %d.%d", pass, i), ftr, 0, i+1)
			}
		}(forks[w])
	}
	wg.Wait()
	for _, f := range forks {
		tr.Merge(f)
	}
	for _, err := range errs {
		r.op(err)
	}
}

// server is one taoptd child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	done   chan struct{} // closed when stderr is drained
}

// startServer boots the tree's taoptd on a loopback port over a file store
// in dataDir and waits until it answers.
func startServer(r *run, dataDir string) (*server, error) {
	if r.cfg.Taoptd == "" {
		return nil, errors.New("no taoptd binary (-taoptd)")
	}
	s := &server{done: make(chan struct{})}
	s.cmd = exec.Command(r.cfg.Taoptd, "-addr", "127.0.0.1:0", "-data", dataDir, "-workers", strconv.Itoa(r.workers))
	s.cmd.Env = append(os.Environ(), "TMPDIR="+r.tmp)
	// If this process dies without stopping the server, the kernel kills it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			s.stderr.WriteString(line + "\n")
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !sent {
				addr <- strings.Fields(rest)[0]
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("taoptd exited before listening: %s", strings.TrimSpace(s.stderr.String()))
		}
		s.base = "http://" + a
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("taoptd did not start listening within 30s")
	}
	return s, nil
}

// stop kills the server and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // already exited is fine: Wait reports it
	<-s.done                 // stderr reaches EOF once the process is gone
	_ = s.cmd.Wait()         // a killed server always reports failure
}

// cpu is the server's CPU time so far: the sum over its threads of
// /proc/<pid>/task/*/schedstat run time, which has nanosecond resolution.
func (s *server) cpu() (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("reading server CPU time: no schedstat for pid %d", s.cmd.Process.Pid)
	}
	var total int64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // a thread that exited meanwhile
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return time.Duration(total), nil
}

// offlineExports computes each warm document's export offline, the way
// taopt -export would, as the reference the served bytes must equal.
func offlineExports(r *run, specs []probeSpec) ([][32]byte, error) {
	results := fleet.Map(r.workers, len(specs), func(i int) ([32]byte, error) {
		rs, err := scenario.CompileRun(r.runDoc(specs[i], "offline"))
		if err != nil {
			return [32]byte{}, err
		}
		cfg, err := harness.FromRunScenario(rs)
		if err != nil {
			return [32]byte{}, err
		}
		res, err := harness.Run(cfg)
		if err != nil {
			return [32]byte{}, err
		}
		var buf bytes.Buffer
		if err := export.FromResult(res).Write(&buf); err != nil {
			return [32]byte{}, err
		}
		return sha256.Sum256(buf.Bytes()), nil
	})
	out := make([][32]byte, len(specs))
	for i, res := range results {
		r.op(res.Err)
		if res.Err != nil {
			return nil, res.Err
		}
		out[i] = res.Value
	}
	return out, nil
}

// warm submits every warm document once on nproc connections, each a miss
// that computes it, and returns the warm set and each miss's latency in
// seconds: one 60-minute run served end to end.
func warm(r *run, c *svcClient, specs []probeSpec, wants [][32]byte) ([]warmDoc, []float64, error) {
	type timed struct {
		s submitted
		d time.Duration
	}
	results := fleet.Map(r.workers, len(specs), func(i int) (timed, error) {
		t0 := time.Now()
		s, err := c.submit(r.runDoc(specs[i], fmt.Sprintf("perfbench warm %d", i)), true)
		return timed{s, time.Since(t0)}, err
	})
	out := make([]warmDoc, len(specs))
	var lat []float64
	for i, res := range results {
		r.op(res.Err)
		if res.Err != nil {
			return nil, nil, res.Err
		}
		if res.Value.s.Cache != "miss" {
			return nil, nil, fmt.Errorf("warm-up submit %d: X-Taopt-Cache %q on a fresh store", i, res.Value.s.Cache)
		}
		out[i] = warmDoc{spec: specs[i], hash: res.Value.s.ConfigHash, want: wants[i]}
		lat = append(lat, res.Value.d.Seconds())
	}
	return out, lat, nil
}

// reqResult is one open-loop request.
type reqResult struct {
	due, done time.Time
	late      time.Duration // how late the generator released it
	miss      bool
	err       error
}

// openLoop releases n requests at rate per second, each due at its slot
// whether or not earlier ones finished, onto nproc client workers; do
// performs request k. Latency counts from the due time, so a stall also
// delays everything queued behind it.
func (r *run) openLoop(rate float64, n int, do func(k int) error) []reqResult {
	res := make([]reqResult, n)
	jobs := make(chan int, n) // sized to the request count: the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				res[k].err = do(k)
				res[k].done = time.Now()
			}
		}()
	}
	t0 := time.Now().Add(10 * time.Millisecond)
	for k := 0; k < n; k++ {
		due := t0.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		res[k].due = due
		res[k].late = time.Since(due)
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	return res
}

// latencies returns the hit latencies (ms, from when due) and generator
// lateness (ms) of open-loop results, counting every request as an
// operation.
func (r *run) latencies(res []reqResult) (hitMS, lateMS []float64, failed int) {
	for _, q := range res {
		r.op(q.err)
		lateMS = append(lateMS, float64(q.late.Nanoseconds())/1e6)
		if q.err != nil {
			failed++
			continue
		}
		if !q.miss {
			hitMS = append(hitMS, float64(q.done.Sub(q.due).Nanoseconds())/1e6)
		}
	}
	return hitMS, lateMS, failed
}

// missDoc is request k's miss: a warm document under a seed never used
// before, so the service must compute it.
func (r *run) missDoc(warmSet []warmDoc, k int) []byte {
	p := warmSet[k%len(warmSet)].spec
	p.Seed = r.seedFor(100000 + k)
	return r.runDoc(p, fmt.Sprintf("perfbench miss %d", k))
}

// tailOf reports a latency sample's tail at the highest percentile it
// supports, with a note naming it.
func tailOf(samples []float64) (float64, string) {
	v, p, ok := Tail(samples)
	if !ok {
		return Percentile(samples, 0.5), fmt.Sprintf("only %d samples: reported p50", len(samples))
	}
	return v, fmt.Sprintf("p%g (%d samples)", 100*p, len(samples))
}

func runService(r *run) error {
	specs := serviceSpecs(r)
	if r.cfg.Tiny {
		specs = specs[:2]
	}
	wants, err := offlineExports(r, specs)
	if err != nil {
		return fmt.Errorf("offline reference: %w", err)
	}

	// Each set-up boots a fresh server on a fresh store and warms it. The
	// last one is measured; the others stop once set-up is over.
	var servers []*server
	defer func() {
		for _, s := range servers {
			s.stop()
		}
	}()
	var warmSet []warmDoc
	var dataDir string
	var missS []float64
	setup, err := r.setUp(func() error {
		var err error
		if dataDir, err = os.MkdirTemp(r.tmp, "taoptd-"); err != nil {
			return err
		}
		srv, err := startServer(r, dataDir)
		if err != nil {
			return err
		}
		servers = append(servers, srv)
		c := newClient(srv.base, r.workers)
		defer c.close()
		var lat []float64
		warmSet, lat, err = warm(r, c, specs, wants)
		missS = append(missS, lat...)
		return err
	})
	if err != nil {
		return err
	}
	for _, s := range servers[:len(servers)-1] {
		s.stop()
	}
	servers = servers[len(servers)-1:]
	srv := servers[0]
	r.logf("service: taoptd at %s warmed %d documents in %.2fs", srv.base, len(warmSet), setup[len(setup)-1])

	c := newClient(srv.base, r.workers)
	defer c.close()
	failedBefore := r.res.Failed
	hits := hitsPerPass
	if r.cfg.Tiny {
		hits = 8
	}
	// One untimed pass first: the heap the warm-up's computes left behind
	// shrinks back while it runs, so every timed pass starts alike.
	r.hitPass(c, warmSet, hits, -1, nil, 0)
	passes := 0
	err = r.runPasses("service.pass", srv.cmd.Process.Pid, passShare, setup, func(tr *Tracer, parent int) (float64, float64, float64, error) {
		c0, err := srv.cpu()
		if err != nil {
			return 0, 0, 0, err
		}
		m, err := startMeter()
		if err != nil {
			return 0, 0, 0, err
		}
		r.hitPass(c, warmSet, hits, passes, tr, parent)
		passes++
		wall, stolen, _, err := m.stop()
		if err != nil {
			return 0, 0, 0, err
		}
		c1, err := srv.cpu()
		return wall, stolen, (c1 - c0).Seconds(), err
	})
	if err != nil {
		return err
	}
	if r.cfg.Trace {
		if err := serviceLayers(r, c, dataDir, warmSet); err != nil {
			return err
		}
		if err := probeCommon(r, specs); err != nil {
			return err
		}
		return probeCodec(r, specs)
	}
	hitMS, lateMS := r.referencePhase(c, warmSet)
	maxRate := r.ladder(c, warmSet)

	hitTail, note := tailOf(hitMS)
	r.extra("hit_p50_ms", "ms", "lower", []float64{Percentile(hitMS, 0.5)}, fmt.Sprintf("at %d req/s, from when due", refRate))
	r.extra("hit_tail_ms", "ms", "lower", []float64{hitTail}, note)
	r.extra("miss_p50_s", "s", "lower", missS, "warm-up submits, each one run computed and stored")
	r.extra("max_hit_rate", "req/s", "higher", []float64{maxRate}, fmt.Sprintf("limit %v on the tail", hitLimit))
	genLate, note := tailOf(lateMS)
	r.extra("gen_late_ms", "ms", "lower", []float64{genLate}, note)
	r.check("service.requests_valid", r.res.Failed == failedBefore,
		"%d requests failed: a hit must carry X-Taopt-Cache: hit and serve the offline export, a miss must compute", r.res.Failed-failedBefore)
	return nil
}

// referencePhase runs the open loop at the reference rate, one request in
// missEvery a miss, and returns the hit latencies and generator lateness
// (ms). It waits for every miss to settle.
func (r *run) referencePhase(c *svcClient, warmSet []warmDoc) (hitMS, lateMS []float64) {
	isMiss := func(k int) bool { return k%missEvery == missEvery-1 }
	n := int(refRate * refShare * float64(r.cfg.Seconds))
	missIDs := make([]string, n)
	res := r.openLoop(refRate, n, func(k int) error {
		if !isMiss(k) {
			return r.hit(c, warmSet[k%len(warmSet)], fmt.Sprintf("perfbench ref %d", k), nil, 0, 0)
		}
		s, err := c.submit(r.missDoc(warmSet, k), false)
		if err == nil && s.Cache != "miss" {
			err = fmt.Errorf("miss %d: X-Taopt-Cache %q", k, s.Cache)
		}
		missIDs[k] = s.ID
		return err
	})
	for k := range res {
		res[k].miss = isMiss(k)
	}
	hitMS, lateMS, _ = r.latencies(res)
	for _, id := range missIDs {
		if id != "" {
			r.op(c.settle(id))
		}
	}
	return hitMS, lateMS
}

// ladder tries the ladder rates with hits only, lowest first, and returns
// the highest whose tail meets hitLimit with no growing backlog (0 if none
// does). It stops at the first rate that fails.
func (r *run) ladder(c *svcClient, warmSet []warmDoc) float64 {
	maxRate := 0.0
	limit := float64(hitLimit.Milliseconds())
	rung := (1 - passShare - refShare) * float64(r.cfg.Seconds) / float64(len(ladderRates))
	for _, rate := range ladderRates {
		res := r.openLoop(rate, max(1, int(rate*rung)), func(k int) error {
			return r.hit(c, warmSet[k%len(warmSet)], fmt.Sprintf("perfbench ladder %g.%d", rate, k), nil, 0, 0)
		})
		lat, _, failed := r.latencies(res)
		tail, _ := tailOf(lat)
		// No growing backlog: the last quarter of requests waits no longer
		// than the limit beyond the first quarter.
		q := len(lat) / 4
		growing := q > 0 && Percentile(lat[len(lat)-q:], 0.5)-Percentile(lat[:q], 0.5) > limit
		ok := failed == 0 && !growing && tail <= limit
		r.logf("service: %g req/s: tail %.1fms, backlog growing %v -> %v", rate, tail, growing, ok)
		if !ok {
			break
		}
		maxRate = rate
	}
	return maxRate
}

// serviceLayers fills the taoptd layer metrics from the traced hit pass's
// client spans, the server's counters, and FileRepo calls on its store.
func serviceLayers(r *run, c *svcClient, dataDir string, warmSet []warmDoc) error {
	by := ByName(r.tr.Spans())
	ms := func(name string) []float64 {
		out := make([]float64, len(by[name].Durs))
		for i, d := range by[name].Durs {
			out[i] = d / 1e6
		}
		return out
	}
	r.layer("service.submit_hit_ms_p50", Percentile(ms("service.submit_hit"), 0.5))
	r.layer("service.submit_hit_ms_p90", Percentile(ms("service.submit_hit"), 0.9))
	r.layer("service.export_get_ms_p50", Percentile(ms("service.export_get"), 0.5))
	ratio, err := c.hitRatio()
	r.op(err)
	if err != nil {
		return err
	}
	r.layer("service.hit_ratio", ratio)
	return probeRepo(r, dataDir, warmSet)
}

// probeRepo times FileRepo.GetCell on the store's cells and PutCell of the
// same cells into a fresh store.
func probeRepo(r *run, dataDir string, warmSet []warmDoc) error {
	src, err := service.NewFileRepo(dataDir)
	if err != nil {
		return err
	}
	dst, err := service.NewFileRepo(filepath.Join(r.tmp, "repo-copy"))
	if err != nil {
		return err
	}
	var get, put []float64
	for i, w := range warmSet {
		t0 := time.Now()
		cell, err := src.GetCell(w.hash)
		t1 := time.Now()
		r.op(err)
		if err != nil {
			return err
		}
		err = dst.PutCell(cell)
		t2 := time.Now()
		r.op(err)
		if err != nil {
			return err
		}
		r.tr.Add("service.repo_get_cell", 0, i, t0, t1, 1)
		r.tr.Add("service.repo_put_cell", 0, i, t1, t2, 1)
		get = append(get, float64(t1.Sub(t0).Nanoseconds())/1e6)
		put = append(put, float64(t2.Sub(t1).Nanoseconds())/1e6)
	}
	r.layer("service.repo_get_cell_ms", get...)
	r.layer("service.repo_put_cell_ms", put...)
	return nil
}

// probeServiceInProcess measures the taoptd layer on a workload whose own
// pass never calls it: an in-process service over a file store behind a
// loopback HTTP server, warmed with the first input document and then hit.
func probeServiceInProcess(r *run, specs []probeSpec) error {
	spec := specs[:1]
	wants, err := offlineExports(r, spec)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.tmp, "svc-probe-")
	if err != nil {
		return err
	}
	repo, err := service.NewFileRepo(dir)
	if err != nil {
		return err
	}
	svc, err := service.New(service.Config{Repo: repo, Workers: r.workers})
	if err != nil {
		return err
	}
	defer svc.Close()
	hs := httptest.NewServer(service.NewHandler(svc))
	defer hs.Close()
	c := newClient(hs.URL, r.workers)
	defer c.close()
	warmSet, _, err := warm(r, c, spec, wants)
	if err != nil {
		return err
	}
	root := r.tr.Begin("service.pass", 0, 0)
	r.hitPass(c, warmSet, hitsPerPass, 0, r.tr, root)
	r.tr.End(root, 1)
	return serviceLayers(r, c, dir, warmSet)
}
