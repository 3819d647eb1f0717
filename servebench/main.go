// Command servebench is SoundBoost's served end-to-end benchmark. It
// stands the real /v1 service up in one process — a journaled
// server.Server, a fleet.Gateway over three journaled replicas, or a
// batch server — drives it over loopback HTTP with closed-loop clients
// for a fixed time, checks every served verdict byte for byte against
// an in-process reference, and prints end-to-end metrics. With -trace 1
// it instead prints a per-module layer table from a traced run.
//
// Run it from the repository root:
//
//	go run ./servebench -workload stream-clean -seed 1 -seconds 10 -trace 0
//
// or through servebench/run.sh, which builds with every cache inside the
// checkout. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"soundboost/internal/obs"
)

// workloads maps each workload to why it was chosen (the same text as
// the "why" of each workload in BENCHMARK.json).
var workloads = map[string]string{
	"stream-clean":   "journaled single-node /v1 streaming of 8 benign flights and 1 GPS drift in 2 s JSON chunks: strict decode, journal fsync and bus publish dominate; analysis is small",
	"fleet-stream":   "the same streams through fleet.Gateway over 3 journaled replicas at Replication 2: the only load on forwarding, follower journal appends and placement checkpoints",
	"batch-incident": "binary .sbf uploads of IMU and GPS incident flights plus a benign control: triage escalates, so signature, NN, IMU KS and GPS KF analysis dominate, not wire or journal",
}

const (
	// maxClients is the number of closed-loop callers: one per CPU of a
	// 2-CPU host, never more than the host has.
	maxClients = 2
	// setupRepeats is how many times set-up runs; setup_s is the median.
	setupRepeats = 3
	// minBeyond is the tail rule: the reported tail percentile leaves at
	// least this many samples above it.
	minBeyond = 10
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order.
type report struct {
	names []string
	m     map[string]metric
	notes []string
}

func (r *report) add(name string, v float64, unit string) {
	if r.m == nil {
		r.m = map[string]metric{}
	}
	if _, dup := r.m[name]; !dup {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "stream-clean, fleet-stream or batch-incident")
		seed     = fs.Int64("seed", 1, "seed of the served flights")
		seconds  = fs.Float64("seconds", 10, "measured load time in seconds")
		trace    = fs.Int("trace", 0, "1 prints the per-layer table of a traced run instead of end-to-end metrics")
		workdir  = fs.String("workdir", ".bench_build", "parent of the run's temporary journal directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "servebench: need -workload one of %s, -seconds > 0, -trace 0 or 1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "servebench-")
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	b := &bench{workload: *workload, seed: *seed, trace: *trace == 1, dir: dir, log: stderr}
	res, rep, err := b.run(*seconds)
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		res.Correct = false
	}
	b.print(stdout, rep)
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "servebench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// bench is one benchmark run.
type bench struct {
	workload string
	seed     int64
	trace    bool
	dir      string
	log      io.Writer

	clients int
	l       *lab
	c       *cluster
	tr      *tracer
	hc      *http.Client
	hcTr    *http.Transport
	next    atomic.Int64 // session counter, for unique flight names
	setup   []float64
}

// load is the outcome of one timed load phase.
type load struct {
	sessions []*session
	rate     float64 // sessions served per second (see runLoad)
	wall     float64 // first start to last finish
	cpu      float64 // process user+sys seconds
	alloc    float64 // bytes allocated
	peakHeap float64 // highest sampled in-use heap bytes
}

func (ld load) ok() int {
	n := 0
	for _, s := range ld.sessions {
		if s.err == nil {
			n++
		}
	}
	return n
}

func (b *bench) run(seconds float64) (result, *report, error) {
	res := result{Metrics: map[string]metric{}}
	rep := &report{}
	b.clients = min(maxClients, runtime.NumCPU())
	b.hcTr = &http.Transport{MaxConnsPerHost: b.clients, MaxIdleConnsPerHost: b.clients}
	b.hc = &http.Client{Transport: b.hcTr}
	defer b.hcTr.CloseIdleConnections()
	rep.note("workload %s (%s)", b.workload, workloads[b.workload])
	rep.note("environment: nproc %d, GOMAXPROCS %d, %s %s/%s (Go before 1.25 ignores a cgroup CPU quota), %d closed-loop clients",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, b.clients)

	err := b.setUp()
	if err != nil {
		if b.c != nil {
			_, _ = b.c.close()
		}
		return res, rep, err
	}
	sort.Float64s(b.setup)
	rep.note("set-up runs: %v s", b.setup)
	rep.note("served pool: %s", b.l.describe())

	var loads []load
	if !b.trace {
		ld, lerr := b.measure(seconds)
		loads = append(loads, ld)
		_, cerr := b.c.close()
		if err = errors.Join(lerr, cerr); err == nil {
			b.endToEnd(rep, ld)
		}
	} else {
		loads, err = b.traced(rep, seconds)
	}
	res.Correct = err == nil
	for _, ld := range loads {
		for _, s := range ld.sessions {
			res.Attempted += s.ops
			res.Failed += s.failed
			if s.err != nil {
				res.Correct = false
				if err == nil {
					err = s.err
				}
			}
		}
	}
	if res.Attempted == 0 {
		res.Correct = false
		res.Attempted = 1
		res.Failed = 1
	}
	if res.Correct {
		for _, n := range rep.names {
			res.Metrics[n] = rep.m[n]
		}
	}
	return res, rep, err
}

// setUp builds the system setupRepeats times — flights, training,
// calibration, triage, references, encoded bodies, servers and one
// warm-up session per server — keeping the last. Each earlier system is
// shut down untimed.
func (b *bench) setUp() error {
	for i := 0; i < setupRepeats; i++ {
		if b.c != nil {
			if _, err := b.c.close(); err != nil {
				return err
			}
			b.c, b.l = nil, nil
		}
		runtime.GC()
		t0 := time.Now()
		l, err := buildLab(b.workload, b.seed)
		if err != nil {
			return err
		}
		var tr *tracer
		if b.trace {
			tr = newTracer()
		}
		c, err := startCluster(b.workload, l, filepath.Join(b.dir, fmt.Sprintf("setup-%d", i)), tr)
		if err != nil {
			return err
		}
		b.l, b.c, b.tr = l, c, tr
		if err := b.warmUp(); err != nil {
			return err
		}
		b.setup = append(b.setup, time.Since(t0).Seconds())
		fmt.Fprintf(b.log, "servebench: set-up %d/%d took %.2f s\n", i+1, setupRepeats, b.setup[i])
	}
	return nil
}

// warmUp serves one session on every server (and one through the
// gateway), each checked against its reference, on at most b.clients
// concurrent callers.
func (b *bench) warmUp() error {
	entries := []string{b.c.entry}
	if b.c.gw != nil {
		entries = append(entries, b.c.bases...)
	}
	errs := make([]error, len(entries))
	sem := make(chan struct{}, b.clients)
	var wg sync.WaitGroup
	for i, e := range entries {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			c := &client{hc: b.hc, entry: e}
			idx := i % len(b.l.pool)
			errs[i] = c.serve(b.workload, fmt.Sprintf("warmup-%s-%d", b.workload, i), idx, b.l.pool[idx]).err
		}()
	}
	wg.Wait()
	b.hcTr.CloseIdleConnections()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// measure runs the closed-loop load for seconds and records the
// process's CPU, allocation and heap over it.
func (b *bench) measure(seconds float64) (load, error) {
	runtime.GC()
	cpu0 := cpuSeconds()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stop := sampleHeap()
	prefix := fmt.Sprintf("%s-s%d", b.workload, b.seed)
	sessions, rate, wall := runLoad(b.workload, b.l, b.clients, b.hc, b.c.entry, b.tr, seconds, prefix, &b.next)
	peak := stop()
	runtime.ReadMemStats(&m1)
	ld := load{
		sessions: sessions,
		rate:     rate,
		wall:     wall,
		cpu:      cpuSeconds() - cpu0,
		alloc:    float64(m1.TotalAlloc - m0.TotalAlloc),
		peakHeap: peak,
	}
	if ld.ok() == 0 {
		return ld, fmt.Errorf("no session completed")
	}
	return ld, nil
}

// endToEnd reports the user-visible metrics of an untraced load.
func (b *bench) endToEnd(rep *report, ld load) {
	n := float64(ld.ok())
	var walls, chunks []float64
	for _, s := range ld.sessions {
		walls = append(walls, s.wall)
		chunks = append(chunks, s.chunks...)
	}
	sort.Float64s(walls)
	sort.Float64s(chunks)
	rep.add("setup_s", median(b.setup), "s")
	rep.add("flights_per_s", ld.rate, "1/s")
	rep.add("session_p50_s", median(walls), "s")
	tail, pct, ok := tailPercentile(walls, minBeyond)
	rep.add("session_tail_s", tail, "s")
	rep.note("session_tail_s is p%.1f of %d sessions%s", pct, len(walls), short(ok))
	rep.add("chunk_p50_s", median(chunks), "s")
	tail, pct, ok = tailPercentile(chunks, minBeyond)
	rep.add("chunk_tail_s", tail, "s")
	what := "frames POSTs"
	if b.workload == "batch-incident" {
		what = "uploads (one per flight)"
	}
	rep.note("chunk_tail_s is p%.1f of %d %s%s", pct, len(chunks), what, short(ok))
	rep.add("cpu_s_per_flight", ld.cpu/n, "s")
	rep.add("alloc_mb_per_flight", ld.alloc/n/1e6, "MB")
	rep.add("peak_heap_mb", ld.peakHeap/1e6, "MB")
	rep.note("load: %d sessions in %.2f s from first start to last finish", len(ld.sessions), ld.wall)
	rep.note("failed_frac %.4f (%d of %d sessions failed)", 1-n/float64(len(ld.sessions)), len(ld.sessions)-ld.ok(), len(ld.sessions))
}

func short(ok bool) string {
	if ok {
		return ""
	}
	return " (too few samples for the tail rule: maximum reported)"
}

// traced runs half the time untraced and half traced, then replays the
// traced sessions' components and builds the layer table.
func (b *bench) traced(rep *report, seconds float64) ([]load, error) {
	plain, err := b.measure(seconds / 2)
	if err != nil {
		_, _ = b.c.close()
		return []load{plain}, err
	}
	obs.Enable()
	before := obs.Default.Snapshot()
	b.tr.on.Store(true)
	tld, err := b.measure(seconds / 2)
	b.tr.on.Store(false)
	after := obs.Default.Snapshot()
	obs.Disable()
	loads := []load{plain, tld}
	usage, cerr := b.c.close()
	if err = errors.Join(err, cerr); err != nil {
		return loads, err
	}
	overhead := 1 - tld.rate/plain.rate
	return loads, b.layers(rep, tld, b.tr.take(), before, after, usage, overhead)
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// sampleHeap samples the in-use heap (runtime/metrics, no stop-the-world)
// every 10 ms until the returned function is called, which returns the
// peak in bytes.
func sampleHeap() func() float64 {
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	stop := make(chan struct{})
	peak := make(chan float64)
	go func() {
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		top := 0.0
		for {
			metrics.Read(samples)
			if v := float64(samples[0].Value.Uint64() + samples[1].Value.Uint64()); v > top {
				top = v
			}
			select {
			case <-stop:
				peak <- top
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-peak
	}
}
