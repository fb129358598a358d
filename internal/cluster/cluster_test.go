package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	bmmc "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/pdm"
	"repro/internal/service"
)

// testCfg is small enough for -race yet striped-divisible: 2^12 records
// cut four ways still leaves M < N' room.
var testCfg = bmmc.Config{N: 1 << 12, D: 4, B: 16, M: 1 << 8}

const hbInterval = 20 * time.Millisecond

// testWorker is one in-process bmmcd: a manager, its HTTP surface, and
// its cluster membership.
type testWorker struct {
	id     string
	mgr    *service.Manager
	srv    *httptest.Server
	member *cluster.Member
}

// testCluster is a coordinator plus n in-process workers, the harness for
// every lifecycle test.
type testCluster struct {
	t        *testing.T
	coord    *cluster.Coordinator
	coordSrv *http.Server
	coordURL string
	workers  []*testWorker
	torn     atomic.Bool
}

// startTestCluster boots a coordinator and n workers and waits until all
// n are registered healthy. wrap, when non-nil, builds the WrapBackend
// hook for worker i — the chaos injection seam.
func startTestCluster(t *testing.T, n int, wrap func(i int) func(string, bmmc.Backend) bmmc.Backend) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	tc.coord = cluster.New(cluster.Options{HeartbeatInterval: hbInterval, Seed: 42})
	tc.coordSrv, tc.coordURL = serveCoord(t, tc.coord, "127.0.0.1:0")
	for i := 0; i < n; i++ {
		tc.addWorker(i, wrap)
	}
	tc.waitWorkers(n)
	t.Cleanup(tc.teardown)
	return tc
}

// serveCoord serves a coordinator on a concrete listener (httptest would
// do, but restart tests must re-bind the same address).
func serveCoord(t *testing.T, c *cluster.Coordinator, addr string) (*http.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("binding coordinator at %s: %v", addr, err)
	}
	srv := &http.Server{Handler: cluster.NewHandler(c)}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String()
}

func (tc *testCluster) addWorker(i int, wrap func(i int) func(string, bmmc.Backend) bmmc.Backend) *testWorker {
	tc.t.Helper()
	cfg := service.ManagerConfig{
		Workers: 2, QueueDepth: 8, Dir: tc.t.TempDir(),
		// Distinct seeds: workers mint job ids independently, and the
		// coordinator routes by id.
		Seed: int64(i+1) * 1000,
	}
	if wrap != nil {
		cfg.WrapBackend = wrap(i)
	}
	mgr, err := service.NewManager(cfg)
	if err != nil {
		tc.t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewHandler(mgr, nil))
	w := &testWorker{id: fmt.Sprintf("w%d", i+1), mgr: mgr, srv: srv}
	w.member = cluster.StartMember(tc.coordURL, w.id, srv.URL, nil)
	tc.workers = append(tc.workers, w)
	return w
}

// waitWorkers polls the registry until n workers are healthy.
func (tc *testCluster) waitWorkers(n int) {
	tc.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		healthy := 0
		for _, w := range tc.coord.Workers() {
			if w.Health == cluster.Healthy {
				healthy++
			}
		}
		if healthy == n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	tc.t.Fatalf("cluster never reached %d healthy workers: %+v", n, tc.coord.Workers())
}

func (tc *testCluster) teardown() {
	if tc.torn.Swap(true) {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, w := range tc.workers {
		w.member.Leave(ctx) // stops the heartbeat loop even if the coordinator is gone
	}
	sctx, scancel := context.WithTimeout(context.Background(), time.Second)
	tc.coordSrv.Shutdown(sctx)
	scancel()
	tc.coord.Shutdown()
	for _, w := range tc.workers {
		w.srv.Close()
		w.mgr.Shutdown(ctx)
	}
}

func (tc *testCluster) client() *client.Client { return client.New(tc.coordURL) }

// makeInput builds cfg.N records with keys distinct from the canonical
// fill, so a permuted download can only come from our upload.
func makeInput(n int) []byte {
	buf := make([]byte, n*bmmc.RecordBytes)
	for x := 0; x < n; x++ {
		bmmc.Record{Key: uint64(x)*2654435761 + 13, Tag: uint64(x)}.Encode(buf[x*bmmc.RecordBytes:])
	}
	return buf
}

// applyPerm is the oracle: out[p(x)] = in[x] in the wire format.
func applyPerm(p bmmc.Permutation, in []byte) []byte {
	out := make([]byte, len(in))
	for x := uint64(0); x < uint64(len(in)/bmmc.RecordBytes); x++ {
		y := p.Apply(x)
		copy(out[y*bmmc.RecordBytes:(y+1)*bmmc.RecordBytes], in[x*bmmc.RecordBytes:(x+1)*bmmc.RecordBytes])
	}
	return out
}

// ioCounts tallies the block-run calls, and the blocks they carry, that
// reach the workers' storage.
type ioCounts struct {
	readCalls, readBlocks, writeCalls, writeBlocks atomic.Int64
}

func (c *ioCounts) reset() {
	c.readCalls.Store(0)
	c.readBlocks.Store(0)
	c.writeCalls.Store(0)
	c.writeBlocks.Store(0)
}

func (c *ioCounts) snapshot() [4]int64 {
	return [4]int64{c.readCalls.Load(), c.readBlocks.Load(), c.writeCalls.Load(), c.writeBlocks.Load()}
}

// countingBackend counts the transfers of the backend it wraps. It hides
// the copy-free block views, so downloads read through ReadBlockRanges
// too.
type countingBackend struct {
	bmmc.Backend
	c *ioCounts
}

func (b countingBackend) ReadBlockRanges(xs []pdm.RangeXfer) error {
	b.c.readCalls.Add(1)
	b.c.readBlocks.Add(runBlocks(xs))
	return b.Backend.ReadBlockRanges(xs)
}

func (b countingBackend) WriteBlockRanges(xs []pdm.RangeXfer) error {
	b.c.writeCalls.Add(1)
	b.c.writeBlocks.Add(runBlocks(xs))
	return b.Backend.WriteBlockRanges(xs)
}

func runBlocks(xs []pdm.RangeXfer) int64 {
	var n int64
	for _, x := range xs {
		n += int64(len(x.Blocks))
	}
	return n
}

// waitNoLeak polls the goroutine count back down to the baseline.
func waitNoLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > base {
		t.Errorf("goroutine leak: %d before, %d after", base, now)
	}
}

// TestClusterDatasetLifecycle drives an ordinary (unstriped) dataset
// through the coordinator exactly as a client would drive one daemon:
// create, upload, two chained jobs watched over proxied SSE, download,
// delete — record-identical to the composed permutation, with no
// goroutines leaked by the full cluster teardown.
func TestClusterDatasetLifecycle(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		tc := startTestCluster(t, 3, nil)
		c := tc.client()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()

		ds, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Config: testCfg})
		if err != nil {
			t.Fatal(err)
		}
		input := makeInput(testCfg.N)
		if err := c.UploadDataset(ctx, ds.ID, bytes.NewReader(input)); err != nil {
			t.Fatal(err)
		}

		gray := bmmc.GrayCode(testCfg.LgN())
		rev := bmmc.BitReversal(testCfg.LgN())
		for _, p := range []bmmc.Permutation{gray, rev} {
			j, err := c.Submit(ctx, client.NewDatasetSubmitRequest(ds.ID, p))
			if err != nil {
				t.Fatal(err)
			}
			final, err := c.Watch(ctx, j.ID, nil)
			if err != nil {
				t.Fatal(err)
			}
			if final.State != client.StateDone {
				t.Fatalf("job %s finished %s (%s), want done", j.ID, final.State, final.Error)
			}
		}

		var got bytes.Buffer
		if err := c.DownloadDataset(ctx, ds.ID, &got); err != nil {
			t.Fatal(err)
		}
		if want := applyPerm(rev, applyPerm(gray, input)); !bytes.Equal(got.Bytes(), want) {
			t.Fatal("chained cluster jobs are not record-identical to the composed permutation")
		}

		if _, err := c.DeleteDataset(ctx, ds.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Dataset(ctx, ds.ID); err == nil {
			t.Fatal("deleted dataset still resolves at the coordinator")
		}
		tc.teardown()
	}()
	waitNoLeak(t, base)
}

// TestClusterStripedJob pins both striped execution paths: Gray code's
// A_hl block is zero, so it decomposes into per-node sub-passes plus a
// pure relabel exchange; bit reversal mixes stripe and local bits, so the
// coordinator routes every record itself. Both must be record-identical
// to a single-node oracle of the full permutation, and the exchange must
// report the transfers the workers' storage really saw.
func TestClusterStripedJob(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		var counts ioCounts
		tc := startTestCluster(t, 3, func(int) func(string, bmmc.Backend) bmmc.Backend {
			return func(_ string, be bmmc.Backend) bmmc.Backend { return countingBackend{be, &counts} }
		})
		c := tc.client()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()

		ds, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Config: testCfg, Stripes: 4})
		if err != nil {
			t.Fatal(err)
		}
		input := makeInput(testCfg.N)
		if err := c.UploadDataset(ctx, ds.ID, bytes.NewReader(input)); err != nil {
			t.Fatal(err)
		}

		want := input
		for i, p := range []bmmc.Permutation{bmmc.GrayCode(testCfg.LgN()), bmmc.BitReversal(testCfg.LgN())} {
			counts.reset()
			j, err := c.Submit(ctx, client.NewDatasetSubmitRequest(ds.ID, p))
			if err != nil {
				t.Fatal(err)
			}
			final, err := c.Watch(ctx, j.ID, nil)
			if err != nil {
				t.Fatal(err)
			}
			if final.State != client.StateDone {
				t.Fatalf("striped job %d finished %s (%s), want done", i, final.State, final.Error)
			}
			if final.Report == nil {
				t.Fatalf("striped job %d reported no run statistics", i)
			}
			if i == 0 && final.Report.Passes < 4 {
				t.Fatalf("Gray code should decompose into >= 4 per-stripe passes, got %d", final.Report.Passes)
			}
			if i == 1 {
				// The exchange streams every stripe out of and back into
				// the workers' disks once: N/(BD) stripe-wide reads and as
				// many writes, N/B blocks each way.
				pios, blocks := testCfg.N/(testCfg.B*testCfg.D), testCfg.N/testCfg.B
				wantRep := client.RunReport{Passes: 1, ParallelIOs: 2 * pios, ParallelReads: pios, ParallelWrites: pios,
					BlocksRead: blocks, BlocksWritten: blocks}
				if *final.Report != wantRep {
					t.Fatalf("bit reversal exchange reported %+v, want %+v", *final.Report, wantRep)
				}
				if got := counts.snapshot(); got != [4]int64{int64(pios), int64(blocks), int64(pios), int64(blocks)} {
					t.Fatalf("workers' storage saw [read calls, blocks, write calls, blocks] = %v, want %d stripe-wide calls of %d blocks each way",
						got, pios, testCfg.D)
				}
			}
			want = applyPerm(p, want)
			var got bytes.Buffer
			if err := c.DownloadDataset(ctx, ds.ID, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("striped job %d is not record-identical to the oracle", i)
			}
		}

		// The stripes really are spread: some worker holds more than zero
		// and fewer than all four.
		spread := false
		for _, w := range tc.coord.Workers() {
			if w.Datasets > 0 && w.Datasets < 4 {
				spread = true
			}
		}
		if !spread {
			t.Fatalf("4 stripes did not spread across workers: %+v", tc.coord.Workers())
		}
		tc.teardown()
	}()
	waitNoLeak(t, base)
}

// TestClusterRebalanceAndLeave pins the two membership transitions around
// a live dataset: a joining worker triggers a rebalance that must
// preserve every byte, and a graceful leave hands the dataset off so it
// stays reachable and a retried job still succeeds — the coordinator
// surface never sees the move.
func TestClusterRebalanceAndLeave(t *testing.T) {
	tc := startTestCluster(t, 2, nil)
	c := tc.client()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Several datasets so ownership almost surely shifts on membership
	// change.
	const nds = 6
	inputs := map[string][]byte{}
	for i := 0; i < nds; i++ {
		ds, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Config: testCfg})
		if err != nil {
			t.Fatal(err)
		}
		in := makeInput(testCfg.N)
		if err := c.UploadDataset(ctx, ds.ID, bytes.NewReader(in)); err != nil {
			t.Fatal(err)
		}
		inputs[ds.ID] = in
	}

	// A job in flight while the third worker joins: membership change must
	// not disturb a running dataset job.
	gray := bmmc.GrayCode(testCfg.LgN())
	var firstID string
	for id := range inputs {
		if firstID == "" || id < firstID {
			firstID = id
		}
	}
	j, err := c.Submit(ctx, client.NewDatasetSubmitRequest(firstID, gray))
	if err != nil {
		t.Fatal(err)
	}
	tc.addWorker(2, nil)
	tc.waitWorkers(3)
	if final, err := c.Watch(ctx, j.ID, nil); err != nil || final.State != client.StateDone {
		t.Fatalf("job across join: %v / %+v", err, final)
	}
	inputs[firstID] = applyPerm(gray, inputs[firstID])

	verify := func(stage string) {
		t.Helper()
		for id, want := range inputs {
			var got bytes.Buffer
			if err := c.DownloadDataset(ctx, id, &got); err != nil {
				t.Fatalf("%s: downloading %s: %v", stage, id, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s: dataset %s lost bytes", stage, id)
			}
		}
	}
	verify("after join rebalance")

	// Graceful leave: w1's datasets hand off before Leave returns.
	if err := tc.workers[0].member.Leave(ctx); err != nil {
		t.Fatalf("graceful leave: %v", err)
	}
	tc.workers[0].srv.Close()
	for _, w := range tc.coord.Workers() {
		if w.ID == "w1" {
			t.Fatalf("left worker still registered: %+v", w)
		}
	}
	verify("after graceful leave")

	// The retried job requirement: a fresh job on a dataset that may have
	// just moved still succeeds.
	for id := range inputs {
		j, err := c.Submit(ctx, client.NewDatasetSubmitRequest(id, gray))
		if err != nil {
			t.Fatalf("submit after leave: %v", err)
		}
		if final, err := c.Watch(ctx, j.ID, nil); err != nil || final.State != client.StateDone {
			t.Fatalf("job after leave: %v / %+v", err, final)
		}
		inputs[id] = applyPerm(gray, inputs[id])
		break
	}
	verify("after post-leave job")
}

// TestClusterDownloadDuringJoin loops downloads of every dataset while
// workers join and leave. A join's rebalance hands datasets off between
// workers; a download routed by the old placement must wait for the move
// (or follow it), never surface the source's "being handed off" 503 or
// "has been deleted" 410.
func TestClusterDownloadDuringJoin(t *testing.T) {
	tc := startTestCluster(t, 2, nil)
	c := tc.client()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	const nds = 6
	inputs := map[string][]byte{}
	for i := 0; i < nds; i++ {
		ds, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Config: testCfg})
		if err != nil {
			t.Fatal(err)
		}
		in := makeInput(testCfg.N)
		if err := c.UploadDataset(ctx, ds.ID, bytes.NewReader(in)); err != nil {
			t.Fatal(err)
		}
		inputs[ds.ID] = in
	}

	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		for {
			for id, want := range inputs {
				select {
				case <-stop:
					return
				default:
				}
				var got bytes.Buffer
				if err := c.DownloadDataset(ctx, id, &got); err != nil {
					errc <- fmt.Errorf("downloading %s: %w", id, err)
					return
				}
				if !bytes.Equal(got.Bytes(), want) {
					errc <- fmt.Errorf("dataset %s lost bytes", id)
					return
				}
			}
		}
	}()

	for round := 0; round < 4; round++ {
		w := tc.addWorker(2+round, nil)
		tc.waitWorkers(3)
		// Join's rebalance runs inside the worker's join call, after the
		// registry already lists it; give the downloads time to overlap it.
		time.Sleep(50 * time.Millisecond)
		if err := w.member.Leave(ctx); err != nil {
			t.Fatalf("round %d: leave: %v", round, err)
		}
		tc.waitWorkers(2)
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestClusterJoinAdoptKeepsNewPlacements: a dataset the coordinator places
// on a worker while that worker's join is still adopting must survive the
// adoption. Join puts the worker on the ring before it lists the worker's
// datasets, so the listing can include a dataset the coordinator has just
// placed there. That copy is the placement's own, not a stale one; deleting
// it loses the dataset.
func TestClusterJoinAdoptKeepsNewPlacements(t *testing.T) {
	tc := &testCluster{t: t}
	// A slow heartbeat cadence: the joiner below has no Member beating for
	// it, and must not be evicted while the test runs.
	tc.coord = cluster.New(cluster.Options{HeartbeatInterval: time.Second, Seed: 44})
	tc.coordSrv, tc.coordURL = serveCoord(t, tc.coord, "127.0.0.1:0")
	tc.addWorker(0, nil)
	tc.waitWorkers(1)
	t.Cleanup(tc.teardown)
	c := tc.client()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// The joiner holds its dataset listing until the test has placed its
	// datasets, so every placement lands inside the adoption window.
	mgr, err := service.NewManager(service.ManagerConfig{Workers: 2, QueueDepth: 8, Dir: t.TempDir(), Seed: 3000})
	if err != nil {
		t.Fatal(err)
	}
	listing, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	h := service.NewHandler(mgr, nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/v1/datasets" {
			once.Do(func() { close(listing) })
			<-release
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.Close()
		mgr.Shutdown(context.Background())
	})

	joined := make(chan error, 1)
	// The joiner is "w3": FNV hashing gives "w2" only a few percent of
	// the ring next to "w1", "w3" over half.
	go func() { joined <- tc.coord.Join("w3", srv.URL) }()
	<-listing // w3 is on the ring and its adoption is listing its datasets
	inputs := map[string][]byte{}
	for i := 0; i < 8; i++ {
		ds, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Config: testCfg})
		if err != nil {
			t.Fatal(err)
		}
		in := makeInput(testCfg.N)
		if err := c.UploadDataset(ctx, ds.ID, bytes.NewReader(in)); err != nil {
			t.Fatal(err)
		}
		inputs[ds.ID] = in
	}
	close(release)
	if err := <-joined; err != nil {
		t.Fatalf("join: %v", err)
	}

	onJoiner := 0
	for _, w := range tc.coord.Workers() {
		if w.ID == "w3" {
			onJoiner = w.Datasets
		}
	}
	if onJoiner == 0 {
		t.Fatal("no dataset was placed on the joining worker; the test is vacuous")
	}
	for id, want := range inputs {
		var got bytes.Buffer
		if err := c.DownloadDataset(ctx, id, &got); err != nil {
			t.Fatalf("downloading %s after the join: %v", id, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("dataset %s lost bytes across the join", id)
		}
	}
}

// TestCoordinatorRestartRediscovers kills the coordinator process state
// entirely — registry, ring, placements — and starts a fresh one on the
// same address. Workers notice via 404 heartbeats, re-join, and the new
// coordinator adopts their datasets from their own listings; a dataset
// created before the restart must answer byte-identical downloads after.
func TestCoordinatorRestartRediscovers(t *testing.T) {
	tc := startTestCluster(t, 3, nil)
	c := tc.client()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	ds, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Config: testCfg})
	if err != nil {
		t.Fatal(err)
	}
	input := makeInput(testCfg.N)
	if err := c.UploadDataset(ctx, ds.ID, bytes.NewReader(input)); err != nil {
		t.Fatal(err)
	}

	// Kill the coordinator, preserving only its address.
	addr := strings.TrimPrefix(tc.coordURL, "http://")
	sctx, scancel := context.WithTimeout(context.Background(), time.Second)
	tc.coordSrv.Shutdown(sctx)
	scancel()
	tc.coord.Shutdown()

	// A fresh coordinator with empty state on the same address.
	tc.coord = cluster.New(cluster.Options{HeartbeatInterval: hbInterval, Seed: 43})
	var (
		ln      net.Listener
		bindErr error
	)
	for i := 0; i < 100; i++ { // the old listener's port may linger briefly
		if ln, bindErr = net.Listen("tcp", addr); bindErr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if bindErr != nil {
		t.Fatalf("rebinding coordinator at %s: %v", addr, bindErr)
	}
	tc.coordSrv = &http.Server{Handler: cluster.NewHandler(tc.coord)}
	go tc.coordSrv.Serve(ln)

	// Workers re-join on their next 404 heartbeat; adoption restores the
	// placement.
	tc.waitWorkers(3)
	deadline := time.Now().Add(5 * time.Second)
	var got bytes.Buffer
	for {
		got.Reset()
		if err = c.DownloadDataset(ctx, ds.ID, &got); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dataset never re-discovered after coordinator restart: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !bytes.Equal(got.Bytes(), input) {
		t.Fatal("re-discovered dataset is not byte-identical")
	}
}

// TestChaosCluster kills one worker's storage mid-job with the PR 7 fault
// wrappers: the job must fail cleanly at the coordinator surface, the
// poisoned worker leaves, and a re-created dataset plus retried job on the
// surviving topology must succeed.
func TestChaosCluster(t *testing.T) {
	flakies := make([]*pdm.FlakyBackend, 3)
	tc := startTestCluster(t, 3, func(i int) func(string, bmmc.Backend) bmmc.Backend {
		return func(kind string, be bmmc.Backend) bmmc.Backend {
			fb := pdm.NewFlakyBackend(be, pdm.FlakyOptions{FailAfterN: 3})
			fb.Disarm()
			flakies[i] = fb
			return fb
		}
	})
	c := tc.client()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	ds, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Config: testCfg})
	if err != nil {
		t.Fatal(err)
	}
	input := makeInput(testCfg.N)
	if err := c.UploadDataset(ctx, ds.ID, bytes.NewReader(input)); err != nil {
		t.Fatal(err)
	}

	// The ring placed the dataset on exactly one worker; poison it.
	owner := -1
	for i, w := range tc.coord.Workers() {
		if w.Datasets == 1 {
			owner = i
		}
	}
	if owner < 0 || flakies[owner] == nil {
		t.Fatalf("could not locate the dataset's owner: %+v", tc.coord.Workers())
	}
	flakies[owner].Arm()

	j, err := c.Submit(ctx, client.NewDatasetSubmitRequest(ds.ID, bmmc.BitReversal(testCfg.LgN())))
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Watch(ctx, j.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateFailed || !strings.Contains(final.Error, "injected disk fault") {
		t.Fatalf("poisoned job finished %s (%q), want a clean failure surfacing the fault", final.State, final.Error)
	}

	// The poisoned worker leaves. Its handoff may fail (the storage is
	// broken), in which case the coordinator drops the placement — either
	// way the cluster stays usable.
	if err := tc.workers[owner].member.Leave(ctx); err != nil {
		t.Fatalf("leaving with poisoned storage: %v", err)
	}
	tc.workers[owner].srv.Close()

	// Retry on the surviving topology: re-create (the old id may have
	// moved with the handoff or died with the worker) and run the same
	// permutation to completion.
	retryID := ds.ID
	if _, err := c.Dataset(ctx, retryID); err != nil {
		nds, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Config: testCfg})
		if err != nil {
			t.Fatal(err)
		}
		retryID = nds.ID
		if err := c.UploadDataset(ctx, retryID, bytes.NewReader(input)); err != nil {
			t.Fatal(err)
		}
	}
	rev := bmmc.BitReversal(testCfg.LgN())
	j2, err := c.Submit(ctx, client.NewDatasetSubmitRequest(retryID, rev))
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.Watch(ctx, j2.ID, nil); err != nil || final.State != client.StateDone {
		t.Fatalf("retry on surviving topology: %v / %+v", err, final)
	}
}

// TestClusterMetricsAggregation pins the coordinator's /v1/metrics schema:
// the single-daemon gauge set summed over workers (decodable by the
// existing client) plus a per-worker `workers` array.
func TestClusterMetricsAggregation(t *testing.T) {
	tc := startTestCluster(t, 3, nil)
	c := tc.client()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	ds, err := c.CreateDataset(ctx, client.CreateDatasetRequest{Config: testCfg})
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.Submit(ctx, client.NewDatasetSubmitRequest(ds.ID, bmmc.GrayCode(testCfg.LgN())))
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.Watch(ctx, j.ID, nil); err != nil || final.State != client.StateDone {
		t.Fatalf("metrics warm-up job: %v / %+v", err, final)
	}

	// The existing client must decode the aggregate exactly as it decodes
	// a daemon's metrics.
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsSubmitted != 1 || m.JobsDone != 1 || m.DatasetsActive != 1 {
		t.Fatalf("aggregate gauges wrong: %+v", m)
	}
	if m.Workers < 3*2 {
		t.Fatalf("worker_pool should sum the three 2-worker pools, got %d", m.Workers)
	}

	// The superset schema carries the per-worker array.
	resp, err := http.Get(tc.coordURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cm cluster.ClusterMetrics
	if err := json.NewDecoder(resp.Body).Decode(&cm); err != nil {
		t.Fatal(err)
	}
	if len(cm.Workers) != 3 {
		t.Fatalf("workers array has %d entries, want 3", len(cm.Workers))
	}
	perWorkerJobs := 0
	for _, wm := range cm.Workers {
		if wm.Error != "" || wm.Metrics == nil {
			t.Fatalf("worker %s metrics missing: %+v", wm.ID, wm)
		}
		if wm.Health != cluster.Healthy {
			t.Fatalf("worker %s is %s, want healthy", wm.ID, wm.Health)
		}
		perWorkerJobs += wm.Metrics.JobsDone
	}
	if perWorkerJobs != cm.JobsDone {
		t.Fatalf("per-worker JobsDone sums to %d, aggregate says %d", perWorkerJobs, cm.JobsDone)
	}
}
