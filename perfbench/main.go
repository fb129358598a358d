// Command perfbench is the repository's layered benchmark. Each workload
// drives one surface of the system — the library Engine, one bmmcd, a
// striped three-worker cluster — in a closed loop from a single client
// goroutine, checks every output against the y = Ax XOR c oracle, and
// reports end-to-end metrics (untraced run) or per-layer metrics (traced
// run) against a memcpy/pread roofline measured in the same process.
//
//	perfbench -workload lib-file-20 -seed 1 -seconds 25 -trace 0
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. Any wrong output makes the command
// exit non-zero. See README.md for the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// env is what a workload receives: the seed its inputs come from, the
// length of its timed phase, private scratch storage inside the
// checkout, and the tracer (nil in an untraced run).
type env struct {
	seed    int64
	seconds time.Duration
	dir     string
	tr      *tracer
	probe   *memcpyProbe
	sampled time.Duration // timed phase at the last probe sample
	start   time.Time
	rounds  int     // rounds done
	peakRSS float64 // process peak in MiB after peakRounds rounds; 0 before
}

// probeEvery is how much timed work passes between memcpy probe samples.
const probeEvery = 500 * time.Millisecond

// procs is the run's GOMAXPROCS. With one P the client, the daemons and
// the engine share one CPU, so a job's time is the CPU work it costs and
// not how the host schedules two busy vCPUs: with 2 Ps a spinning
// neighbour on the other vCPU slowed daemon-chain-20's median job by 13%
// and its tail by 29%; with 1 P it moved neither. See README.md.
const procs = 1

// peakRounds is how many rounds after set-up peak_rss_mb covers. The
// daemons keep every finished job in memory, so a peak taken at the end
// of the timed phase grows with the number of jobs the host had time
// for: on cluster-striped-20, 148 MiB after 10 s and 178-333 MiB after
// 25 s, depending on the host. The window is still long enough to
// catch the coordinator's occasional 32 MiB: its exchange gathers into
// a buffer sized exactly to the records, which doubles when the last
// read of a stripe returns no data. Within 10 rounds three runs of ten
// had not hit it yet and read 146 MiB instead of 178 MiB.
const peakRounds = 25

// between runs between rounds, outside the timed windows: it samples the
// memcpy probe once per probeEvery of timed work, and reads the process
// peak once peakRounds rounds are done.
func (e *env) between(timed time.Duration) {
	e.rounds++
	if e.rounds == peakRounds {
		e.peakRSS, _ = peakRSSMB() // on an error, run reads it again and reports it
	}
	if timed-e.sampled >= probeEvery {
		e.probe.sample()
		e.sampled = timed
	}
}

// setupRepeats is how many times an untraced run sets up from nothing;
// setup_s is the median.
const setupRepeats = 9

// maxLoop caps a run's wall clock however slow a round gets, so every run
// ends well within its time limit.
const maxLoop = 100 * time.Second

// done reports whether the timed phase is over.
func (e *env) done(timed time.Duration) bool {
	return timed >= e.seconds || time.Since(e.start) > maxLoop
}

// jobSample is one permutation job of the timed phase.
type jobSample struct {
	dur      time.Duration // Execute call, or Submit until Watch saw done
	passes   int           // planned passes
	costIOs  int           // PlanFor's CostIOs at the dataset geometry
	lowerIOs float64       // Theorem 3 lower bound at the dataset geometry
	reported int           // parallel I/Os the job reported doing
	traced   bool          // backend instrumented and progress hooked
	span     int           // the job's span in a traced run
	exchange bool          // striped job routed through the coordinator exchange
}

// outcome is what a workload measured.
type outcome struct {
	n            int // records permuted by each job
	blockRecords int // records per block (B)
	stripes      int // stripes per dataset; 0 when not striped
	setups       []time.Duration
	timed        time.Duration // wall time of the timed phase
	jobs         []jobSample
	attempted    int // operations attempted (each one checked)
	failed       int // operations that failed or produced wrong output
	planDur      []time.Duration
	planned      int // plans looked up (core.cache_hit_frac denominator)
	cacheHits    int
	peakRSS      float64
}

type workload struct {
	name string
	run  func(context.Context, *env) (*outcome, error)
}

var workloads = []workload{
	{"lib-file-20", runLib},
	{"daemon-chain-20", runDaemon},
	{"cluster-striped-20", runCluster},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	runtime.GOMAXPROCS(procs)
	// The collector runs only where the workloads call runtime.GC, after
	// every job and data-plane call, so every timed call starts from a
	// collected heap and no collection runs inside a timed window.
	debug.SetGCPercent(-1)
	name := flag.String("workload", "", "workload to run: lib-file-20, daemon-chain-20 or cluster-striped-20")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 25, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	out := flag.String("out", ".bench_build", "directory for scratch storage and trace files")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (lib-file-20, daemon-chain-20, cluster-striped-20), -seconds > 0, -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(filepath.Join(*out, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(filepath.Join(*out, "tmp"), "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), dir: dir,
		probe: newMemcpyProbe(), start: time.Now()}
	if *traceFlag == 1 {
		e.tr = newTracer()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	fmt.Printf("workload %s  seed %d  timed %.0fs  trace %d  GOMAXPROCS %d  NumCPU %d\n",
		wl.name, *seed, *seconds, *traceFlag, runtime.GOMAXPROCS(0), runtime.NumCPU())
	o, err := wl.run(ctx, e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if len(o.jobs) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no job completed")
		return 1
	}
	if e.peakRSS == 0 { // a run of fewer than peakRounds rounds
		if e.peakRSS, err = peakRSSMB(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	// The probe buffer is resident from before set-up to the end, so the
	// workload's own peak is the process peak less the buffer.
	o.peakRSS = e.peakRSS - rooflineBytes>>20
	fmt.Printf("peak_rss_mb covers set-up and the first %d of %d rounds\n", min(e.rounds, peakRounds), e.rounds)
	roof, err := measureRoofline(dir, e.probe)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: roofline:", err)
		return 1
	}
	fmt.Printf("roofline: memcpy %.2f GB/s (median of %d copies between the halves of a %d MiB buffer); pread %.2f GB/s over a %d MiB file (page-cache bandwidth in this process, not a device figure)\n",
		roof.memcpyGBps, len(e.probe.samples), rooflineBytes>>20, roof.preadGBps, rooflineBytes>>20)

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed}
	if e.tr == nil {
		res.Metrics = endToEnd(o, roof)
	} else {
		ix := indexSpans(e.tr.snapshot())
		res.Metrics = perLayer(o, ix, roof)
		path := filepath.Join(*out, "traces", fmt.Sprintf("%s-seed%d.json", wl.name, *seed))
		if err := e.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		fmt.Printf("trace: %d spans written to %s\n", len(ix.spans), path)
	}
	printMetrics(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed or produced wrong output\n", o.failed, o.attempted)
		return 1
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// refMemcpyGBps is the memcpy bandwidth the time metrics are scaled to,
// about the in-run probe median on the reference machine when its host
// is quiet. Other tenants' memory traffic moved that median between 4.8
// and 9.0 GB/s within ten back-to-back runs, and job times moved with it
// by up to 1.75x: lib-file-20's job_ms_p50 spread 0.51 as measured and
// 0.05 scaled by memcpyGBps/refMemcpyGBps.
const refMemcpyGBps = 8.0

// endToEnd computes the metrics a user of the surface sees. The five
// time metrics read what the run would have taken at refMemcpyGBps; the
// times as measured are printed above the result line.
func endToEnd(o *outcome, roof roofline) map[string]metric {
	// ns_per_pio and roofline_frac are totals over all jobs, not medians
	// of per-job ratios: the daemon workloads mix jobs of different pass
	// counts, and a median would jump between the kinds.
	var durs []float64
	var jobTime time.Duration
	var pios, moved float64
	for _, j := range o.jobs {
		durs = append(durs, ms(j.dur))
		jobTime += j.dur
		pios += float64(j.costIOs)
		moved += float64(j.passes) * 2 * float64(o.n) * 16
	}
	var setups []float64
	for _, d := range o.setups {
		setups = append(setups, d.Seconds())
	}
	tailMS, pct := tail(durs)
	fmt.Printf("jobs %d in %.2fs timed; set-ups %d; job_ms_tail is p%.1f of %d samples; fail_frac %d/%d\n",
		len(o.jobs), o.timed.Seconds(), len(setups), pct, len(durs), o.failed, o.attempted)
	fmt.Printf("job_ms min %.2f p25 %.2f p50 %.2f p75 %.2f max %.2f\n",
		quantile(durs, 0), quantile(durs, 0.25), median(durs), quantile(durs, 0.75), quantile(durs, 1))
	fmt.Printf("pdm.pio_reported_over_planned %.4f\n", pioRatio(o))
	setupS, recordsPerS := median(setups), float64(o.n*len(o.jobs))/o.timed.Seconds()
	nsPerPIO := float64(jobTime.Nanoseconds()) / pios
	fmt.Printf("as measured at memcpy %.2f GB/s: setup_s %.6g  records_per_s %.6g  job_ms_p50 %.6g  job_ms_tail %.6g  ns_per_pio %.6g\n",
		roof.memcpyGBps, setupS, recordsPerS, median(durs), tailMS, nsPerPIO)
	k := roof.memcpyGBps / refMemcpyGBps // below 1 when this run's host was slower than the reference
	fmt.Printf("scaled to the reference memcpy %.1f GB/s: times x %.4f\n", refMemcpyGBps, k)
	return map[string]metric{
		"setup_s":       {setupS * k, "s"},
		"records_per_s": {recordsPerS / k, "1/s"},
		"job_ms_p50":    {median(durs) * k, "ms"},
		"job_ms_tail":   {tailMS * k, "ms"},
		"ns_per_pio":    {nsPerPIO * k, "ns"},
		"roofline_frac": {moved / (jobTime.Seconds() * roof.memcpyGBps * 1e9), "ratio"},
		"peak_rss_mb":   {o.peakRSS, "MiB"},
		"ok_frac":       {1 - float64(o.failed)/float64(o.attempted), "ratio"},
	}
}

// pioRatio compares the parallel I/Os jobs reported with what their plans
// cost; exchange jobs that report no I/O pull it below 1.
func pioRatio(o *outcome) float64 {
	var rep, plan int
	for _, j := range o.jobs {
		rep += j.reported
		plan += j.costIOs
	}
	return float64(rep) / float64(plan)
}
