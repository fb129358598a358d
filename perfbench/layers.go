package main

import (
	"fmt"
	"time"
)

// perLayer derives the per-layer metrics of a traced run from its spans.
// A layer the workload never reaches reports 0.
func perLayer(o *outcome, ix *spanIndex, roof roofline) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// engine and pdm: the traced jobs, where the backend is instrumented.
	var self, readBusy, writeBusy, calls, loads, tracedMS, plainMS []float64
	var readBlocks, writeBlocks, nCalls int
	var readTime, writeTime time.Duration
	for _, j := range o.jobs {
		if !j.traced {
			plainMS = append(plainMS, ms(j.dur))
			continue
		}
		tracedMS = append(tracedMS, ms(j.dur))
		job := ix.spans[j.span]
		reads, writes := ix.under(j.span, "pdm.read"), ix.under(j.span, "pdm.write")
		readBusy = append(readBusy, ms(busy(reads)))
		writeBusy = append(writeBusy, ms(busy(writes)))
		calls = append(calls, float64(len(reads)+len(writes)))
		nCalls += len(reads) + len(writes)
		readTime += busy(reads)
		writeTime += busy(writes)
		for _, s := range reads {
			readBlocks += s.Blocks
		}
		for _, s := range writes {
			writeBlocks += s.Blocks
		}
		if j.exchange {
			continue // the coordinator moves these records; no engine runs
		}
		// The engine's own time is the job's execution window less the
		// union of backend calls inside it; a daemon job's window is its
		// service.run interval, a library job's is the Execute call.
		window := job
		if run := ix.under(j.span, "service.run"); len(run) == 1 {
			window = run[0]
		}
		pdmCalls := append(append([]span(nil), reads...), writes...)
		self = append(self, ms(window.dur()-covered(pdmCalls, window.Start, window.End)))
		loads = append(loads, float64(len(ix.under(j.span, "engine.load"))))
	}
	var loadUS []float64
	for _, s := range ix.named("engine.load") {
		loadUS = append(loadUS, float64(s.dur().Microseconds()))
	}
	blockBytes := float64(o.blockRecords * 16)
	set("engine.self_ms_p50", median(self), "ms")
	set("engine.load_us_p50", median(loadUS), "us")
	set("engine.loads", median(loads), "count")
	set("pdm.read_busy_ms", median(readBusy), "ms")
	set("pdm.write_busy_ms", median(writeBusy), "ms")
	set("pdm.read_GBps", gbps(float64(readBlocks)*blockBytes, readTime), "GB/s")
	set("pdm.write_GBps", gbps(float64(writeBlocks)*blockBytes, writeTime), "GB/s")
	set("pdm.blocks_per_call", ratio(float64(readBlocks+writeBlocks), float64(nCalls)), "count")
	set("pdm.calls", median(calls), "count")
	var syncMS []float64
	for _, s := range ix.named("pdm.sync") {
		syncMS = append(syncMS, ms(s.dur()))
	}
	set("pdm.sync_ms", median(syncMS), "ms")
	set("pdm.pio_reported_over_planned", pioRatio(o), "ratio")

	// core: planning, timed around PlanFor / Engine.Plan by the benchmark.
	var planUS, passes, overLB []float64
	for _, d := range o.planDur {
		planUS = append(planUS, float64(d.Nanoseconds())/1e3)
	}
	for _, j := range o.jobs {
		passes = append(passes, float64(j.passes))
		overLB = append(overLB, float64(j.costIOs)/j.lowerIOs)
	}
	set("core.plan_us_p50", median(planUS), "us")
	set("core.cache_hit_frac", ratio(float64(o.cacheHits), float64(o.planned)), "ratio")
	set("core.passes", median(passes), "count")
	set("core.pio_over_lb", median(overLB), "ratio")

	// service: the client's data-plane calls and the job timestamps the
	// daemon reports.
	spanMS := func(name string) float64 {
		var v []float64
		for _, s := range ix.named(name) {
			v = append(v, ms(s.dur()))
		}
		return median(v)
	}
	streamGBps := func(name string) float64 {
		ss := ix.named(name)
		return gbps(float64(len(ss)*o.n*16), busy(ss))
	}
	set("service.create_ms_p50", spanMS("service.create"), "ms")
	set("service.upload_GBps", streamGBps("service.upload"), "GB/s")
	set("service.download_GBps", streamGBps("service.download"), "GB/s")
	set("service.queue_ms_p50", spanMS("service.queue"), "ms")
	set("service.run_ms_p50", spanMS("service.run"), "ms")
	set("service.notify_ms_p50", spanMS("service.notify"), "ms")

	// cluster: striped jobs split by the path the coordinator took.
	var decomposed, exchange []float64
	for _, j := range o.jobs {
		switch {
		case o.stripes == 0:
		case j.exchange:
			exchange = append(exchange, ms(j.dur))
		default:
			decomposed = append(decomposed, ms(j.dur))
		}
	}
	set("cluster.decomposed_ms_p50", median(decomposed), "ms")
	set("cluster.exchange_ms_p50", median(exchange), "ms")
	// The exchange gathers every record to the coordinator and scatters
	// it back: 2N x 16 bytes per job.
	xms := median(exchange)
	set("cluster.exchange_GBps", ratio(float64(2*o.n*16)/1e9, xms/1e3), "GB/s")

	set("roofline.memcpy_GBps", roof.memcpyGBps, "GB/s")
	set("roofline.pread_GBps", roof.preadGBps, "GB/s")
	overhead := ratio(median(tracedMS), median(plainMS)) - 1
	set("trace.overhead_frac", overhead, "ratio")
	fmt.Printf("traced jobs %d (p50 %.3f ms) vs untraced %d (p50 %.3f ms)\n",
		len(tracedMS), median(tracedMS), len(plainMS), median(plainMS))
	return m
}

func gbps(bytes float64, d time.Duration) float64 { return ratio(bytes/1e9, d.Seconds()) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
