package service

import (
	"log/slog"
	"strconv"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pdm"
)

// managerObs owns the daemon's Prometheus registry and the metric handles
// the manager's hot paths touch. Everything else — queue depth, per-state
// job gauges, plan-cache stats, runtime stats — is refreshed lazily on
// scrape, so steady-state job execution pays only for counters it
// actually increments.
type managerObs struct {
	reg *obs.Registry
	log *slog.Logger

	opLatency   *obs.HistogramVec // bmmc_backend_op_seconds{op,disk}
	transitions *obs.CounterVec   // bmmc_job_transitions_total{state}
	queueWait   *obs.Histogram    // bmmc_queue_wait_seconds
	dataBytes   *obs.CounterVec   // bmmc_data_plane_bytes_total{direction}
	passIOs     *obs.CounterVec   // bmmc_pass_ios{class,kernel}
	bounds      *obs.GaugeVec     // bmmc_pass_io_bound{bound}
}

func newManagerObs(m *Manager) *managerObs {
	r := obs.NewRegistry()
	o := &managerObs{
		reg: r,
		log: m.log,
		opLatency: r.HistogramVec("bmmc_backend_op_seconds",
			"Latency of one backend batch call, observed once per disk the batch touched.",
			obs.DefLatencyBuckets, "op", "disk"),
		transitions: r.CounterVec("bmmc_job_transitions_total",
			"Job state transitions, including the initial queued admission.", "state"),
		queueWait: r.Histogram("bmmc_queue_wait_seconds",
			"Time from job admission to a worker claiming it.", obs.DefWaitBuckets),
		dataBytes: r.CounterVec("bmmc_data_plane_bytes_total",
			"Record bytes moved over the HTTP data plane (uploads in, downloads out).", "direction"),
		passIOs: r.CounterVec("bmmc_pass_ios",
			"Measured parallel I/Os attributed to completed engine passes, by plan class and scatter kernel. "+
				"For one job this sums to exactly the job's reported parallel I/O count.",
			"class", "kernel"),
		bounds: r.GaugeVec("bmmc_pass_io_bound",
			"Cumulative theoretical parallel-I/O bounds over jobs that finished done: "+
				"Theorem 3 lower and Theorem 21 upper. bmmc_pass_ios / this ratio is measured-vs-theory.",
			"bound"),
	}
	// Touch the bound series so a scrape before the first completed job
	// still exports both brackets.
	o.bounds.With("lower").Add(0)
	o.bounds.With("upper").Add(0)

	obs.RegisterRuntime(r, "bmmc")

	queueDepth := r.Gauge("bmmc_queue_depth", "Jobs holding admission-queue slots.")
	queueCap := r.Gauge("bmmc_queue_capacity", "Admission queue bound.")
	workerPool := r.Gauge("bmmc_worker_pool", "Execution worker pool size.")
	jobsByState := r.GaugeVec("bmmc_jobs", "Jobs currently in each lifecycle state.", "state")
	dsActive := r.Gauge("bmmc_datasets_active", "Datasets not yet deleted.")
	cacheHits := r.Gauge("bmmc_plan_cache_hits", "Shared plan cache hits since start.")
	cacheMisses := r.Gauge("bmmc_plan_cache_misses", "Shared plan cache misses since start.")
	cacheSize := r.Gauge("bmmc_plan_cache_size", "Plans resident in the shared cache.")
	cacheRatio := r.Gauge("bmmc_plan_cache_hit_ratio", "Plan cache hits / lookups, 0 when unused.")
	r.OnScrape(func() {
		mt := m.Metrics()
		queueDepth.Set(float64(mt.QueueDepth))
		queueCap.Set(float64(mt.QueueCapacity))
		workerPool.Set(float64(mt.Workers))
		jobsByState.With(string(StateQueued)).Set(float64(mt.JobsQueued))
		jobsByState.With(string(StatePlanning)).Set(float64(mt.JobsPlanning))
		jobsByState.With(string(StateRunning)).Set(float64(mt.JobsRunning))
		jobsByState.With(string(StateDone)).Set(float64(mt.JobsDone))
		jobsByState.With(string(StateFailed)).Set(float64(mt.JobsFailed))
		jobsByState.With(string(StateCanceled)).Set(float64(mt.JobsCanceled))
		dsActive.Set(float64(mt.DatasetsActive))
		cacheHits.Set(float64(mt.PlanCacheHits))
		cacheMisses.Set(float64(mt.PlanCacheMisses))
		cacheSize.Set(float64(mt.PlanCacheSize))
		cacheRatio.Set(mt.PlanCacheRate)
	})
	return o
}

// jobTransition is the audit hook: every state transition increments the
// counter and emits one structured audit line with job/dataset/tenant
// fields. It runs with j.mu held (from setStateLocked) or at admission,
// so it touches only immutable job fields and lock-free metric handles.
func (o *managerObs) jobTransition(j *Job, to State, errMsg string) {
	o.transitions.With(string(to)).Inc()
	dataset := ""
	if j.dsEntry != nil {
		dataset = j.dsEntry.id
	}
	o.log.Info("audit: job transition",
		"job", j.id, "dataset", dataset, "tenant", "default",
		"state", string(to), "class", j.summary.Class, "error", errMsg)
}

// ioSink routes instrumented-backend samples to whichever job currently
// runs on the backend. The manager points it at the running job's trace
// buffer for the duration of Execute; dataset jobs are turnstile-
// serialized, so at most one job owns the sink at a time.
type ioSink struct {
	buf atomic.Pointer[obs.TraceBuffer]
}

// opObserver adapts backend OpSamples into latency-histogram observations
// and io spans. It runs on the engine's reader/writer goroutines, so it
// only touches atomic metric handles and the mutex-guarded trace ring.
func (o *managerObs) opObserver(sink *ioSink) pdm.OpObserver {
	return func(s pdm.OpSample) {
		sec := s.Dur.Seconds()
		disks := 0
		for disk, n := range s.PerDisk {
			if n == 0 {
				continue
			}
			disks++
			o.opLatency.With(s.Op, strconv.Itoa(disk)).Observe(sec)
		}
		if tb := sink.buf.Load(); tb != nil {
			tb.Add(obs.Span{
				Name: obs.SpanIO, Op: s.Op,
				Disks: disks, Blocks: s.Blocks, Runs: s.Runs,
				Start: s.Start, End: s.End(),
			})
		}
	}
}
