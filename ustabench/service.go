package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"maps"
	stdnet "net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytics"
	"repro/internal/fleet/durable"
	fleetnet "repro/internal/fleet/net"
)

// service is the `ustafleetd` stack in-process: a JobServer journaling to a
// WAL state dir, dispatching through a fleetnet.Runner to one worker
// daemon, both on loopback TCP. Clients reach it over real HTTP: submit
// and poll share one connection, /metrics and /fleet scrapes another.
type service struct {
	dir       string
	js        *fleetnet.JobServer
	worker    *fleetnet.Server
	http      *http.Server
	base      string
	wireBytes atomic.Int64
	serving   sync.WaitGroup
	client    *http.Client // submits and status polls
	scraper   *http.Client // /metrics and /fleet
}

// pollInterval is how often in-flight jobs are polled for a terminal
// status; it bounds the resolution of measured job latencies.
const pollInterval = 10 * time.Millisecond

func startService(dir string, workers int) (*service, error) {
	s := &service{dir: dir}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	wln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.worker = &fleetnet.Server{Capacity: workers}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		s.worker.Serve(context.Background(), countingListener{Listener: wln, bytes: &s.wireBytes})
	}()

	store, err := durable.OpenStore(dir)
	if err != nil {
		s.close()
		return nil, err
	}
	s.js = fleetnet.NewJobServer(fleetnet.New([]string{wln.Addr().String()}))
	s.js.Workers = workers
	s.js.Store = store
	if err := s.js.Recover(); err != nil {
		s.close()
		return nil, fmt.Errorf("recover: %w", err)
	}
	hln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.base = "http://" + hln.Addr().String()
	s.http = &http.Server{Handler: s.js.Handler()}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		s.http.Serve(hln)
	}()
	oneConn := func() *http.Client {
		return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	s.client, s.scraper = oneConn(), oneConn()
	return s, nil
}

// close drains the service: running jobs are cancelled, listeners close,
// and it returns once every serving goroutine has exited.
func (s *service) close() {
	if s.js != nil {
		s.js.Close()
	}
	if s.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.http.Shutdown(ctx)
		cancel()
	}
	s.worker.Shutdown()
	s.serving.Wait()
	for _, c := range []*http.Client{s.client, s.scraper} {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
}

// jobStatus is the part of GET /jobs/{id} the benchmark reads.
type jobStatus struct {
	Status  string                  `json:"status"`
	Total   int                     `json:"total"`
	Error   string                  `json:"error"`
	Comfort []analytics.UserComfort `json:"comfort"`
}

func (s jobStatus) terminal() bool { return s.Status != "running" && s.Status != "" }

// submit POSTs a spec and returns the job ID (empty unless 202).
func (s *service) submit(body []byte) (string, int, error) {
	resp, err := s.client.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var ack struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || resp.StatusCode != http.StatusAccepted {
		return "", resp.StatusCode, err
	}
	return ack.ID, resp.StatusCode, nil
}

func (s *service) status(id string) (jobStatus, error) {
	var st jobStatus
	resp, err := s.client.Get(s.base + "/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /jobs/%s: %s", id, resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// scrape fetches an endpoint on the scrape connection and returns its
// round-trip time and body.
func (s *service) scrape(path string) (time.Duration, []byte, error) {
	t0 := time.Now()
	resp, err := s.scraper.Get(s.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	rtt := time.Since(t0)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return rtt, body, err
}

// fleetCounters reads the merged redial and hedge counts from GET /fleet.
func (s *service) fleetCounters() (redials, hedges int, err error) {
	_, body, err := s.scrape("/fleet")
	if err != nil {
		return 0, 0, err
	}
	var f fleetnet.RunnerStats
	if err := json.Unmarshal(body, &f); err != nil {
		return 0, 0, err
	}
	for _, h := range f.Hosts {
		redials += h.Redials
	}
	return redials, f.Hedges, nil
}

// stateBytes is the size of every file in the WAL state dir.
func (s *service) stateBytes() int64 {
	var n int64
	filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// jobRec is one submitted job's timeline, in nanoseconds from loop start.
type jobRec struct {
	kind                 string
	id                   string
	code                 int
	dueNS, sentNS, ackNS int64
	endNS                int64 // 0: never reached a terminal status
	status, errMsg       string
	cells                int
	digest               string
}

func (r *jobRec) ok() bool { return r.status == "done" }

// comfortDigest hashes a job's final per-user comfort table.
func comfortDigest(c []analytics.UserComfort) string {
	data, _ := json.Marshal(c) // a slice of plain structs always marshals
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// loopResult is one open-loop run against the service.
type loopResult struct {
	jobs       []*jobRec
	scrapeMS   []float64
	scrapeErrs int
}

// drainTimeout bounds how long the loop waits for jobs still running when
// the arrival schedule ends; jobs unfinished by then count as failed.
const drainTimeout = 60 * time.Second

// openLoop sends the arrival schedule, each submission at its due time
// regardless of how earlier ones fare, polls in-flight jobs to their
// terminal status, and scrapes /metrics once a second until every job has
// finished or the drain times out. tr, when non-nil, records each job as a
// span (due → terminal) with ack and exec children sharing the job's ID.
func (s *service) openLoop(ctx context.Context, arrivals []Arrival, bodies map[string][]byte, tr *Tracer) loopResult {
	start := time.Now()
	since := func() int64 { return int64(time.Since(start)) }
	res := loopResult{jobs: make([]*jobRec, len(arrivals))}

	var mu sync.Mutex
	var inflight []*jobRec
	sent := make(chan struct{})    // closed when the schedule is sent
	drained := make(chan struct{}) // closed when the watcher is done
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // generator
		defer wg.Done()
		defer close(sent)
		for i, a := range arrivals {
			due := time.Duration(a.AtSec * float64(time.Second))
			if d := due - time.Since(start); d > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(d):
				}
			}
			rec := &jobRec{kind: a.Kind, dueNS: int64(due), sentNS: since()}
			rec.id, rec.code, _ = s.submit(bodies[a.Kind])
			rec.ackNS = since()
			res.jobs[i] = rec
			if rec.id != "" {
				mu.Lock()
				inflight = append(inflight, rec)
				mu.Unlock()
			}
		}
	}()
	go func() { // scraper: /metrics at the start and once a second after
		defer wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			rtt, _, err := s.scrape("/metrics")
			mu.Lock()
			if err != nil {
				res.scrapeErrs++
			} else {
				res.scrapeMS = append(res.scrapeMS, float64(rtt)/1e6)
			}
			mu.Unlock()
			select {
			case <-drained:
				return
			case <-tick.C:
			}
		}
	}()

	// Watcher: poll until the schedule is sent and nothing is in flight,
	// or the drain times out.
	var drainDeadline time.Time
	for ctx.Err() == nil {
		mu.Lock()
		pending := append([]*jobRec(nil), inflight...)
		mu.Unlock()
		done := map[*jobRec]bool{}
		for _, rec := range pending {
			st, err := s.status(rec.id)
			if err != nil || !st.terminal() {
				continue
			}
			rec.endNS, rec.status, rec.cells, rec.errMsg = since(), st.Status, st.Total, st.Error
			rec.digest = comfortDigest(st.Comfort)
			done[rec] = true
		}
		mu.Lock()
		kept := inflight[:0]
		for _, rec := range inflight {
			if !done[rec] {
				kept = append(kept, rec)
			}
		}
		inflight = kept
		left := len(inflight)
		mu.Unlock()
		select {
		case <-sent:
			if drainDeadline.IsZero() {
				drainDeadline = time.Now().Add(drainTimeout)
			}
		default:
		}
		if !drainDeadline.IsZero() && (left == 0 || time.Now().After(drainDeadline)) {
			break
		}
		time.Sleep(pollInterval)
	}
	close(drained)
	wg.Wait()
	if tr != nil {
		for _, rec := range res.jobs {
			if rec == nil || rec.endNS == 0 {
				continue
			}
			id := tr.NewID()
			group := rec.kind + "/" + rec.id
			tr.Add(Span{ID: id, Group: group, Name: "service.job", StartNS: rec.dueNS, EndNS: rec.endNS})
			tr.Add(Span{ID: tr.NewID(), Parent: id, Group: group, Name: "service.ack", StartNS: rec.dueNS, EndNS: rec.ackNS})
			tr.Add(Span{ID: tr.NewID(), Parent: id, Group: group, Name: "service.exec", StartNS: rec.ackNS, EndNS: rec.endNS})
		}
	}
	return res
}

// serviceSetup starts the service and runs one warm-up job of each kind,
// returning the warm-up comfort digest per kind.
func serviceSetup(ctx context.Context, dir string, workers int, bodies map[string][]byte) (*service, map[string]string, error) {
	s, err := startService(dir, workers)
	if err != nil {
		return nil, nil, err
	}
	warm := make([]Arrival, len(Kinds))
	for i, k := range Kinds {
		warm[i] = Arrival{Kind: k}
	}
	ref := map[string]string{}
	for _, j := range s.openLoop(ctx, warm, bodies, nil).jobs {
		if j == nil || !j.ok() {
			s.close()
			return nil, nil, fmt.Errorf("warm-up job failed: %+v", j)
		}
		ref[j.kind] = j.digest
	}
	return s, ref, nil
}

// runService runs fleetd-mixed.
func runService(ctx context.Context, o options, out io.Writer) (*Result, error) {
	workers := runtime.NumCPU()
	bodies := map[string][]byte{}
	for _, k := range Kinds {
		b, err := json.Marshal(ServiceSpec(o.seed, k))
		if err != nil {
			return nil, err
		}
		bodies[k] = b
	}
	var (
		setup []float64
		svc   *service
		ref   map[string]string
	)
	defer func() {
		if svc != nil {
			svc.close()
			os.RemoveAll(svc.dir)
		}
	}()
	for k := 0; k < o.setupReps; k++ {
		if svc != nil { // only the last set-up serves the timed loop
			svc.close()
			os.RemoveAll(svc.dir)
			svc = nil
		}
		dir := filepath.Join(o.workDir, fmt.Sprintf("fleetd-state-%d-%d", os.Getpid(), k))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, digests, err := serviceSetup(ctx, dir, workers, bodies)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		svc = s
		if ref != nil && !maps.Equal(ref, digests) {
			return nil, fmt.Errorf("warm-up digests differ between set-ups: %v vs %v", ref, digests)
		}
		ref = digests
	}
	fmt.Fprintf(out, "setup_s samples %s (service start + Recover + one warm-up job per kind)\n", fmtSecs(setup))
	fmt.Fprintf(out, "sizing: open loop, Poisson %.3g jobs/s, kinds 1:1 %v, %d workers per job, worker capacity %d, 2 client connections\n",
		o.rate, Kinds, workers, workers)
	for _, k := range Kinds {
		fmt.Fprintf(out, "digest %s %s (final comfort, warm-up job)\n", k, ref[k])
	}

	res := &Result{Correct: true, Metrics: map[string]Metric{}}
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	arrivals := Arrivals(o.seed, o.rate, budget)
	lr := svc.openLoop(ctx, arrivals, bodies, nil)
	lat, exec := tallyLoop(res, out, "untraced", lr, ref)
	tail := tailOf(lat)
	fmt.Fprintf(out, "jobs %d, latency_p50_s %.4f s, tail %s = %.4f s, late max %.1f ms, scrapes %d\n",
		len(lr.jobs), median(lat), tail, tail.Value, lateMaxMS(lr), len(lr.scrapeMS))
	if !o.trace {
		res.Metrics["setup_s"] = Metric{median(setup), "s"}
		// run_s: ack → terminal, the job's time inside the service.
		res.Metrics["run_s"] = Metric{median(exec), "s"}
		res.Metrics["latency_p50_s"] = Metric{median(lat), "s"}
		res.Metrics["latency_tail_s"] = Metric{tail.Value, "s"}
		res.Metrics["peak_rss_mb"] = Metric{peakRSSMB(), "MB"}
		return res, nil
	}

	tr := NewTracer()
	wal0, wire0 := svc.stateBytes(), svc.wireBytes.Load()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	gc0 := readGCCPU()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tlr := svc.openLoop(ctx, arrivals, bodies, tr)
	runtime.ReadMemStats(&ms1)
	gc1 := readGCCPU()
	profile := prof.stop()
	tlat, _ := tallyLoop(res, out, "traced", tlr, ref)
	fr, err := cpuFractions(profile)
	if err != nil {
		return nil, err
	}
	redials, hedges, err := svc.fleetCounters()
	if err != nil {
		return nil, err
	}
	var ack []float64
	execBy := map[string][]float64{}
	cells := 0
	for _, j := range tlr.jobs {
		ack = append(ack, float64(j.ackNS-j.sentNS)/1e6)
		if j.ok() {
			execBy[j.kind] = append(execBy[j.kind], float64(j.endNS-j.ackNS)/1e9)
			cells += j.cells
		}
	}
	n := float64(len(tlr.jobs))
	walBytes, wireBytes := svc.stateBytes()-wal0, svc.wireBytes.Load()-wire0
	tr.Count("service.jobs", n)
	tr.Count("fleet.cells", float64(cells))
	tr.Count("fleet.durable.wal_bytes", float64(walBytes))
	tr.Count("fleet.wire.bytes", float64(wireBytes))
	m := map[string]float64{
		"fleet.net.ack_p50_ms":            median(ack),
		"fleet.net.ack_tail_ms":           tailOf(ack).Value,
		"fleet.net.exec_p50_s.baseline":   median(execBy[KindBaseline]),
		"fleet.net.exec_p50_s.usta":       median(execBy[KindUSTA]),
		"fleet.durable.wal_bytes_per_job": float64(walBytes) / n,
		"fleet.wire.bytes_per_cell":       float64(wireBytes) / float64(cells),
		"fleet.net.redials":               float64(redials),
		"fleet.net.hedges":                float64(hedges),
		"obs.scrape_p50_ms":               median(tlr.scrapeMS),
		"loadgen.late_max_ms":             lateMaxMS(tlr),
		"runtime.alloc_mb":                float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / n,
		"runtime.gc_cpu_frac":             gc1.fracSince(gc0),
		"trace.overhead_frac":             median(tlat)/median(lat) - 1,
	}
	for l, v := range fr {
		m[l+".cpu_frac"] = v
	}
	for _, pl := range PerLayer {
		if _, ok := m[pl.Name]; !ok {
			m[pl.Name] = 0 // sweep-side layers run behind the HTTP API here
		}
	}
	fillMetrics(res, m)
	if err := writeTrace(out, tr, profile, o.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// tallyLoop counts one loop's submissions and failures into res, checks
// every finished job's comfort digest against its kind's warm-up, and
// returns the due → terminal latencies and ack → terminal times of the jobs
// that finished done.
func tallyLoop(res *Result, out io.Writer, label string, lr loopResult, ref map[string]string) (lat, exec []float64) {
	for i, j := range lr.jobs {
		res.Attempted++
		switch {
		case j == nil:
			res.Failed++
			fmt.Fprintf(out, "FAILED: %s job %d never submitted\n", label, i)
		case j.code != http.StatusAccepted:
			res.Failed++
			fmt.Fprintf(out, "FAILED: %s job %d submit answered %d\n", label, i, j.code)
		case j.endNS == 0:
			res.Failed++
			fmt.Fprintf(out, "FAILED: %s job %s unfinished at the end of the drain\n", label, j.id)
		case !j.ok():
			res.Failed++
			fmt.Fprintf(out, "FAILED: %s job %s ended %s: %s\n", label, j.id, j.status, j.errMsg)
		default:
			if j.digest != ref[j.kind] {
				res.Correct = false
				fmt.Fprintf(out, "MISMATCH: %s %s job %s comfort digest %s, want %s\n", label, j.kind, j.id, j.digest, ref[j.kind])
			}
			lat = append(lat, float64(j.endNS-j.dueNS)/1e9)
			exec = append(exec, float64(j.endNS-j.ackNS)/1e9)
		}
	}
	if lr.scrapeErrs > 0 {
		res.Correct = false
		fmt.Fprintf(out, "FAILED: %s: %d /metrics scrapes failed\n", label, lr.scrapeErrs)
	}
	return lat, exec
}

// lateMaxMS is how late the generator sent its latest submission.
func lateMaxMS(lr loopResult) float64 {
	var late int64
	for _, j := range lr.jobs {
		if j != nil && j.sentNS-j.dueNS > late {
			late = j.sentNS - j.dueNS
		}
	}
	return float64(late) / 1e6
}
