package main

import (
	"bytes"
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	bmmc "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/pdm"
	"repro/internal/service"
)

// svcCfg is the geometry of the daemon and cluster workloads: 2^20
// records, a 16 MiB dataset that fits in L3 with its target portion.
var svcCfg = bmmc.Config{N: 1 << 20, D: 8, B: 64, M: 1 << 14}

// clusterStripes is the stripe count of the cluster workload's datasets.
const clusterStripes = 4

// fleet is the system under test of the daemon and cluster workloads:
// in-process daemons behind loopback listeners and the one client that
// drives them.
type fleet struct {
	cl    *client.Client
	hc    *http.Client
	stop  []func() // teardown steps, run last to first
	trace atomic.Bool
}

func (f *fleet) close() {
	for i := len(f.stop) - 1; i >= 0; i-- {
		f.stop[i]()
	}
	f.hc.CloseIdleConnections()
}

// wrapBackend is the daemons' ManagerConfig.WrapBackend in a traced run:
// storage provisioned while f.trace is set reports every backend call to
// the tracer through pdm.InstrumentBackend; other storage stays plain.
func (f *fleet) wrapBackend(tr *tracer) func(string, bmmc.Backend) bmmc.Backend {
	if tr == nil {
		return nil
	}
	return func(_ string, be bmmc.Backend) bmmc.Backend {
		if f.trace.Load() {
			return pdm.InstrumentBackend(be, tr.observe)
		}
		return be
	}
}

// serve runs h on a fresh loopback port until the returned stop is called.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// startDaemon starts one bmmcd (job manager, file storage under dir) and
// returns its URL and teardown.
func (f *fleet) startDaemon(dir string, seed int64, tr *tracer) (string, error) {
	mgr, err := service.NewManager(service.ManagerConfig{Dir: dir, Seed: seed, WrapBackend: f.wrapBackend(tr)})
	if err != nil {
		return "", err
	}
	url, stop, err := serve(service.NewHandler(mgr, nil))
	if err != nil {
		mgr.Shutdown(context.Background())
		return "", err
	}
	f.stop = append(f.stop, func() {
		stop()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	})
	return url, nil
}

func (f *fleet) connect(url string) {
	// One keep-alive transport: a job's event stream and the status call
	// that ends Watch are the only two connections the client holds.
	f.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}}
	f.cl = client.New(url, client.WithHTTPClient(f.hc))
}

// startSingle is the daemon-chain-20 system: one bmmcd.
func startSingle(e *env, dir string) (*fleet, error) {
	f := &fleet{}
	url, err := f.startDaemon(dir, e.seed, e.tr)
	if err != nil {
		return nil, err
	}
	f.connect(url)
	return f, nil
}

// startCluster is the cluster-striped-20 system: a coordinator and three
// bmmcd workers, ready once all three are registered healthy.
func startCluster(e *env, dir string) (*fleet, error) {
	f := &fleet{hc: &http.Client{}}
	coord := cluster.New(cluster.Options{Seed: e.seed})
	curl, stop, err := serve(cluster.NewHandler(coord))
	if err != nil {
		coord.Shutdown()
		return nil, err
	}
	f.stop = append(f.stop, func() {
		stop()
		coord.Shutdown()
	})
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("w%d", i+1)
		url, err := f.startDaemon(filepath.Join(dir, id), e.seed*10+int64(i+1), e.tr)
		if err != nil {
			f.close()
			return nil, err
		}
		member := cluster.StartMember(curl, id, url, nil)
		f.stop = append(f.stop, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			member.Leave(ctx)
		})
	}
	f.connect(curl)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		healthy := 0
		for _, w := range coord.Workers() {
			if w.Health == cluster.Healthy {
				healthy++
			}
		}
		if healthy == 3 {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("perfbench: cluster has %d of 3 healthy workers after 10s", healthy)
		}
	}
}

func runDaemon(ctx context.Context, e *env) (*outcome, error) {
	return runService(ctx, e, startSingle, 0)
}

func runCluster(ctx context.Context, e *env) (*outcome, error) {
	return runService(ctx, e, startCluster, clusterStripes)
}

// svcDataset is one round's dataset: its id, the records uploaded to it,
// and the permutation its contents have gone through since. Every round
// regenerates its records into the same input buffer.
type svcDataset struct {
	id     string
	input  []byte
	cum    bmmc.Permutation
	traced bool
}

// runService is the daemon-chain-20 and cluster-striped-20 workload. One
// round runs a Gray code, a bit reversal and a fresh seeded random BMMC
// as jobs on one dataset, downloads and checks the result, and deletes
// the dataset; it then creates and uploads the next round's dataset (the
// first one is part of set-up: the point where the first job can start).
// A traced run alternates rounds between instrumented and plain storage.
func runService(ctx context.Context, e *env, start func(*env, string) (*fleet, error), stripes int) (*outcome, error) {
	rng := bmmc.NewRand(e.seed)
	o := &outcome{n: svcCfg.N, blockRecords: svcCfg.B, stripes: stripes}
	// The client's buffers are allocated once and reused by every round,
	// so the rounds do not churn the heap between timed calls.
	input := make([]byte, svcCfg.N*pdm.RecordBytes)
	want := make([]byte, len(input))
	var got bytes.Buffer
	// ReadFrom wants MinRead bytes free before each read, the one that
	// finds EOF included; the slack keeps the buffer from doubling in a
	// round whose last read returns no data.
	got.Grow(len(input) + bytes.MinRead)
	var f *fleet
	var ds *svcDataset
	defer func() {
		if f != nil {
			if ds != nil {
				f.cl.DeleteDataset(ctx, ds.id)
			}
			f.close()
		}
	}()

	setups := setupRepeats
	if e.tr != nil {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		t := time.Now()
		var err error
		if f, err = start(e, filepath.Join(e.dir, fmt.Sprintf("fleet-%d", i))); err != nil {
			return nil, err
		}
		if ds, err = f.createDataset(ctx, e, o, rng, input, false); err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t))
		if i < setups-1 {
			f.cl.DeleteDataset(ctx, ds.id)
			f.close()
			f, ds = nil, nil
			runtime.GC() // the next set-up starts from a collected heap
		}
	}
	o.timed = 0 // the first dataset's create and upload belong to set-up

	n := svcCfg.LgN()
	for round := 0; !e.done(o.timed); round++ {
		jobs := []struct {
			kind string
			p    bmmc.Permutation
		}{
			{"gray", bmmc.GrayCode(n)},
			{"bitrev", bmmc.BitReversal(n)},
			{"random", bmmc.RandomPermutation(rng, n)},
		}
		for _, j := range jobs {
			if err := f.runJob(ctx, e, o, ds, j.kind, j.p); err != nil {
				return o, err
			}
		}

		got.Reset()
		t := time.Now()
		id := e.tr.begin("service.download", ds.id)
		err := f.cl.DownloadDataset(ctx, ds.id, &got)
		e.tr.end(id)
		o.timed += time.Since(t)
		o.attempted++
		if err != nil {
			o.failed++
			return o, fmt.Errorf("perfbench: download: %w", err)
		}
		o.attempted++ // the output check
		oracle(want, ds.input, ds.cum)
		if !bytes.Equal(got.Bytes(), want) {
			o.failed++
			fmt.Fprintf(os.Stderr, "perfbench: round %d: downloaded dataset differs from the y = Ax xor c oracle\n", round)
		}
		runtime.GC() // collect the round's garbage before timing resumes
		e.between(o.timed)

		t = time.Now()
		id = e.tr.begin("service.delete", ds.id)
		_, err = f.cl.DeleteDataset(ctx, ds.id)
		e.tr.end(id)
		o.timed += time.Since(t)
		o.attempted++
		ds = nil
		if err != nil {
			o.failed++
			return o, fmt.Errorf("perfbench: delete: %w", err)
		}
		if e.done(o.timed) {
			break
		}
		if ds, err = f.createDataset(ctx, e, o, rng, input, e.tr != nil && round%2 == 0); err != nil {
			return o, err
		}
	}
	return o, nil
}

// createDataset fills input with seeded records, makes a dataset and
// uploads them; the create and upload calls count toward the timed phase.
func (f *fleet) createDataset(ctx context.Context, e *env, o *outcome, rng *rand.Rand, input []byte, traced bool) (*svcDataset, error) {
	for i := 0; i < svcCfg.N; i++ {
		bmmc.MakeRecord(rng.Uint64()).Encode(input[i*pdm.RecordBytes:])
	}
	f.trace.Store(traced)
	t := time.Now()
	id := e.tr.begin("service.create", "")
	st, err := f.cl.CreateDataset(ctx, client.CreateDatasetRequest{Config: svcCfg, Backend: client.BackendFile, Stripes: o.stripes})
	e.tr.end(id)
	o.attempted++
	if err != nil {
		o.failed++
		return nil, fmt.Errorf("perfbench: create dataset: %w", err)
	}
	id = e.tr.begin("service.upload", st.ID)
	err = f.cl.UploadDataset(ctx, st.ID, bytes.NewReader(input))
	e.tr.end(id)
	o.timed += time.Since(t)
	o.attempted++
	if err != nil {
		o.failed++
		return nil, fmt.Errorf("perfbench: upload: %w", err)
	}
	runtime.GC()
	return &svcDataset{id: st.ID, input: input, cum: bmmc.Identity(svcCfg.LgN()), traced: traced}, nil
}

// runJob submits p on the dataset and watches it to completion. The job
// time runs from Submit until the event stream shows it done.
func (f *fleet) runJob(ctx context.Context, e *env, o *outcome, ds *svcDataset, kind string, p bmmc.Permutation) error {
	// Planned by the benchmark as well, outside the timed phase: the cost
	// the job should report, and the core layer's planning time.
	t := time.Now()
	pl, err := bmmc.PlanFor(svcCfg, p, true)
	o.planDur = append(o.planDur, time.Since(t))
	if err != nil {
		return err
	}
	e.tr.add("core.plan", kind, -1, t, time.Now())

	o.attempted++
	start := time.Now()
	id := e.tr.begin("job", kind)
	var done, last time.Time
	st, err := f.cl.Submit(ctx, client.NewDatasetSubmitRequest(ds.id, p))
	var final *client.JobStatus
	if err == nil {
		final, err = f.cl.Watch(ctx, st.ID, func(ev client.Event) {
			now := time.Now()
			switch {
			case ev.Type == service.EventProgress && ev.Progress != nil:
				if ev.Progress.Load > 0 && !last.IsZero() {
					e.tr.add("engine.load", kind, id, last, now)
				}
				last = now
			case ev.Type == service.EventState && ev.State.Terminal():
				done = now
			}
		})
	}
	e.tr.end(id)
	o.timed += time.Since(start)
	if err != nil {
		o.failed++
		return fmt.Errorf("perfbench: %s job: %w", kind, err)
	}
	if final.State != client.StateDone || final.Report == nil || final.Started == nil || final.Finished == nil {
		o.failed++
		return fmt.Errorf("perfbench: %s job ended %s: %s", kind, final.State, final.Error)
	}
	e.tr.add("service.queue", kind, id, final.Submitted, *final.Started)
	e.tr.add("service.run", kind, id, *final.Started, *final.Finished)
	e.tr.add("service.notify", kind, id, *final.Finished, done)
	runtime.GC()
	ds.cum = p.Compose(ds.cum)
	o.planned++
	if final.Report.PlanShared {
		o.cacheHits++
	}
	o.jobs = append(o.jobs, jobSample{
		dur: done.Sub(start), passes: pl.PassCount(), costIOs: pl.CostIOs(), lowerIOs: pl.LowerBoundIOs(),
		reported: final.Report.ParallelIOs, traced: ds.traced, span: id, exchange: o.stripes > 0 && crossesStripes(p, o.stripes),
	})
	return nil
}

// crossesStripes reports whether p's A_hl block — stripe-number rows,
// in-stripe columns — is nonzero, so a striped job cannot decompose into
// per-stripe sub-jobs and the coordinator exchanges records instead.
func crossesStripes(p bmmc.Permutation, stripes int) bool {
	n := p.Bits()
	local := n - bits.TrailingZeros(uint(stripes))
	return !p.A.Submatrix(local, n, 0, local).IsZero()
}

// oracle writes into want the records of input, each moved from address
// x to cum(x) = Ax XOR c.
func oracle(want, input []byte, cum bmmc.Permutation) {
	const rb = pdm.RecordBytes
	ca := cum.Compile()
	for x := 0; x < len(input)/rb; x++ {
		y := int(ca.Apply(uint64(x)))
		copy(want[y*rb:(y+1)*rb], input[x*rb:(x+1)*rb])
	}
}
