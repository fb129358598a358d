package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	bmmc "repro"
	"repro/client"
	"repro/internal/service"
)

// coordErr is an error that knows its HTTP status, the cluster analogue of
// the daemon's httpError.
type coordErr struct {
	status int
	msg    string
}

func (e *coordErr) Error() string { return e.msg }

func apiErr(status int, msg string) error { return &coordErr{status: status, msg: msg} }

// asGatewayErr maps a worker-call failure onto the coordinator's surface:
// a worker's own API error passes through with its status (a 409 from the
// owning worker IS the dataset's state), transport failures become 502.
func asGatewayErr(err error) error {
	if err == nil {
		return nil
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		return apiErr(ae.Status, ae.Message)
	}
	return apiErr(http.StatusBadGateway, "worker call failed: "+err.Error())
}

func isAPIStatus(err error, target **client.APIError) bool { return errors.As(err, target) }

// maxBody bounds JSON request bodies, matching the daemon's limit.
const maxBody = 1 << 20

// joinRequest is the body of POST /cluster/v1/join and /cluster/v1/leave;
// heartbeat sends only the id.
type joinRequest struct {
	ID   string `json:"id"`
	Addr string `json:"addr,omitempty"`
}

// joinResponse tells the worker the cadence the failure detector expects.
type joinResponse struct {
	HeartbeatInterval time.Duration `json:"heartbeat_interval_ns"`
}

// WorkerMetrics is one worker's slice of the cluster metrics.
type WorkerMetrics struct {
	ID      string           `json:"id"`
	Addr    string           `json:"addr"`
	Health  Health           `json:"health"`
	Metrics *service.Metrics `json:"metrics,omitempty"`
	Error   string           `json:"scrape_error,omitempty"` // metrics fetch failure; worker skipped from sums
}

// ClusterMetrics is GET /v1/metrics at the coordinator: the single-daemon
// gauge set summed over every worker (plus the coordinator's own striped
// jobs), with the per-worker breakdown in Workers. Existing clients decode
// the summed gauges exactly as they would a daemon's.
type ClusterMetrics struct {
	service.Metrics
	Workers []WorkerMetrics `json:"workers"`
}

// ClusterMetrics aggregates live worker metrics. Workers whose fetch fails
// appear in the array with an error and contribute nothing to the sums.
func (c *Coordinator) ClusterMetrics(ctx context.Context) *ClusterMetrics {
	out := &ClusterMetrics{Workers: []WorkerMetrics{}}
	for _, w := range c.Workers() {
		wm := WorkerMetrics{ID: w.ID, Addr: w.Addr, Health: w.Health}
		m, err := c.workerClient(w.Addr).Metrics(ctx)
		if err != nil {
			wm.Error = err.Error()
			c.obs.scrapeFails.With(w.ID).Inc()
		} else {
			wm.Metrics = m
			addMetrics(&out.Metrics, m)
		}
		out.Workers = append(out.Workers, wm)
	}
	c.mu.Lock()
	for _, sj := range c.sjobs {
		out.JobsSubmitted++
		switch sj.status().State {
		case service.StateRunning:
			out.JobsRunning++
		case service.StateQueued:
			out.JobsQueued++
		case service.StateDone:
			out.JobsDone++
			out.DatasetJobsRun++
		case service.StateFailed:
			out.JobsFailed++
		case service.StateCanceled:
			out.JobsCanceled++
		}
	}
	c.mu.Unlock()
	if n := out.PlanCacheHits + out.PlanCacheMisses; n > 0 {
		out.PlanCacheRate = float64(out.PlanCacheHits) / float64(n)
	}
	return out
}

// addMetrics accumulates one worker's gauges into the cluster sum.
func addMetrics(sum *service.Metrics, m *service.Metrics) {
	sum.JobsSubmitted += m.JobsSubmitted
	sum.JobsQueued += m.JobsQueued
	sum.JobsPlanning += m.JobsPlanning
	sum.JobsRunning += m.JobsRunning
	sum.JobsDone += m.JobsDone
	sum.JobsFailed += m.JobsFailed
	sum.JobsCanceled += m.JobsCanceled
	sum.QueueDepth += m.QueueDepth
	sum.QueueCapacity += m.QueueCapacity
	sum.Workers += m.Workers
	sum.DatasetsCreated += m.DatasetsCreated
	sum.DatasetsActive += m.DatasetsActive
	sum.DatasetJobsRun += m.DatasetJobsRun
	sum.Passes += m.Passes
	sum.ParallelIOs += m.ParallelIOs
	sum.ParallelReads += m.ParallelReads
	sum.ParallelWrites += m.ParallelWrites
	sum.PlanCacheHits += m.PlanCacheHits
	sum.PlanCacheMisses += m.PlanCacheMisses
	sum.PlanCacheSize += m.PlanCacheSize
}

// pickWorker chooses a worker for per-job (non-dataset) storage:
// round-robin over the healthy set, falling back to suspects when nothing
// is healthy — a suspect is merely late, not gone.
func (c *Coordinator) pickWorker() (string, error) {
	ws := c.reg.snapshot()
	var pool []string
	for _, w := range ws {
		if w.Health == Healthy {
			pool = append(pool, w.ID)
		}
	}
	if len(pool) == 0 {
		for _, w := range ws {
			if w.Health == Suspect {
				pool = append(pool, w.ID)
			}
		}
	}
	if len(pool) == 0 {
		return "", apiErr(http.StatusServiceUnavailable, "no live workers in the cluster")
	}
	c.mu.Lock()
	c.seq++
	pick := pool[c.seq%len(pool)]
	c.mu.Unlock()
	return pick, nil
}

// submitJob routes POST /v1/jobs: striped-dataset jobs run on the
// coordinator itself, ordinary dataset jobs go to the owning worker, and
// per-job-storage jobs round-robin over live workers. Either way the
// worker's job id is the cluster-wide job id.
func (c *Coordinator) submitJob(ctx context.Context, req service.SubmitRequest) (*service.JobStatus, error) {
	if req.Dataset != "" {
		p, release, err := c.usePlacement(req.Dataset)
		if err != nil {
			return nil, err
		}
		defer release()
		if p.striped {
			return c.submitStriped(req, p)
		}
		return c.forwardSubmit(ctx, req, p.stripes[0].worker, p.id)
	}
	w, err := c.pickWorker()
	if err != nil {
		return nil, err
	}
	return c.forwardSubmit(ctx, req, w, "")
}

// forwardSubmit sends a submit to one worker and records the job route.
func (c *Coordinator) forwardSubmit(ctx context.Context, req service.SubmitRequest, worker, dataset string) (*service.JobStatus, error) {
	wc, err := c.clientFor(worker)
	if err != nil {
		return nil, err
	}
	js, err := wc.Submit(ctx, req)
	if err != nil {
		return nil, asGatewayErr(err)
	}
	c.mu.Lock()
	if _, dup := c.routes[js.ID]; dup {
		c.log.Warn("job id collision across workers; route overwritten — give workers distinct seeds", "job", js.ID)
	}
	c.routes[js.ID] = &jobRoute{worker: worker, dataset: dataset, submitted: js.Submitted}
	c.mu.Unlock()
	return js, nil
}

// routeOf resolves a job id to the worker running it.
func (c *Coordinator) routeOf(id string) (*jobRoute, error) {
	c.mu.Lock()
	rt, ok := c.routes[id]
	c.mu.Unlock()
	if !ok {
		return nil, apiErr(http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
	}
	return rt, nil
}

// jobStatuses merges every worker's job list with the coordinator's
// striped jobs, in submission order.
func (c *Coordinator) jobStatuses(ctx context.Context) []*service.JobStatus {
	var out []*service.JobStatus
	for _, w := range c.Workers() {
		wc, err := c.clientFor(w.ID)
		if err != nil {
			continue
		}
		sts, err := wc.Jobs(ctx)
		if err != nil {
			c.log.Warn("listing jobs on worker", "worker", w.ID, "err", err)
			continue
		}
		out = append(out, sts...)
	}
	c.mu.Lock()
	for _, sj := range c.sjobs {
		out = append(out, sj.status())
	}
	c.mu.Unlock()
	sortStatusesBySubmitted(out)
	return out
}

// NewHandler wires the coordinator's HTTP surface: the entire single-daemon
// /v1 API (proxied, striped datasets handled by the coordinator itself) plus
// the cluster control plane:
//
//	POST /cluster/v1/join      worker registration {id, addr}
//	POST /cluster/v1/heartbeat liveness beat {id}; 404 tells the worker to re-join
//	POST /cluster/v1/leave     graceful drain: stripes hand off before the reply
//	GET  /cluster/v1/workers   registry snapshot with health and placement counts
//
// GET /v1/metrics answers the ClusterMetrics superset of the daemon schema,
// GET /metrics the Prometheus exposition (coordinator families merged with
// every worker's, worker series tagged with a worker label), and
// GET /v1/jobs/{id}/trace a striped job's stitched cross-worker trace.
func NewHandler(c *Coordinator) http.Handler {
	h := &handler{c: c}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/join", h.join)
	mux.HandleFunc("POST /cluster/v1/heartbeat", h.heartbeat)
	mux.HandleFunc("POST /cluster/v1/leave", h.leave)
	mux.HandleFunc("GET /cluster/v1/workers", h.workers)

	mux.HandleFunc("POST /v1/jobs", h.submit)
	mux.HandleFunc("GET /v1/jobs", h.listJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", h.jobStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", h.jobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", h.jobTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", h.jobCancel)
	mux.HandleFunc("PUT /v1/jobs/{id}/input", h.jobProxy)
	mux.HandleFunc("GET /v1/jobs/{id}/output", h.jobProxy)

	mux.HandleFunc("POST /v1/datasets", h.createDataset)
	mux.HandleFunc("GET /v1/datasets", h.listDatasets)
	mux.HandleFunc("GET /v1/datasets/{id}", h.datasetStatus)
	mux.HandleFunc("DELETE /v1/datasets/{id}", h.deleteDataset)
	mux.HandleFunc("PUT /v1/datasets/{id}/input", h.datasetInput)
	mux.HandleFunc("GET /v1/datasets/{id}/output", h.datasetOutput)

	mux.HandleFunc("GET /v1/metrics", h.metrics)
	mux.HandleFunc("GET /metrics", h.promMetrics)
	return mux
}

type handler struct {
	c *Coordinator
}

func (h *handler) writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var ce *coordErr
	if errors.As(err, &ce) {
		status = ce.status
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func (h *handler) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (h *handler) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(v); err != nil {
		h.writeErr(w, apiErr(http.StatusBadRequest, "decoding request: "+err.Error()))
		return false
	}
	return true
}

// --- cluster control plane ---

func (h *handler) join(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !h.decode(w, r, &req) {
		return
	}
	if err := h.c.Join(req.ID, req.Addr); err != nil {
		h.writeErr(w, err)
		return
	}
	h.writeJSON(w, http.StatusOK, joinResponse{HeartbeatInterval: h.c.o.HeartbeatInterval})
}

func (h *handler) heartbeat(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !h.decode(w, r, &req) {
		return
	}
	if !h.c.reg.heartbeat(req.ID) {
		h.writeErr(w, apiErr(http.StatusNotFound, fmt.Sprintf("unknown worker %q; re-join", req.ID)))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *handler) leave(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !h.decode(w, r, &req) {
		return
	}
	if err := h.c.Leave(req.ID); err != nil {
		h.writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *handler) workers(w http.ResponseWriter, r *http.Request) {
	h.writeJSON(w, http.StatusOK, h.c.Workers())
}

// --- job surface ---

func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	var req service.SubmitRequest
	if !h.decode(w, r, &req) {
		return
	}
	st, err := h.c.submitJob(r.Context(), req)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	h.writeJSON(w, http.StatusCreated, st)
}

func (h *handler) listJobs(w http.ResponseWriter, r *http.Request) {
	h.writeJSON(w, http.StatusOK, h.c.jobStatuses(r.Context()))
}

// stripedOf returns the striped job for an id, if the coordinator owns it.
func (h *handler) stripedOf(id string) *stripedJob {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	return h.c.sjobs[id]
}

func (h *handler) jobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if sj := h.stripedOf(id); sj != nil {
		h.writeJSON(w, http.StatusOK, sj.status())
		return
	}
	h.proxyJob(w, r, id)
}

func (h *handler) jobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if sj := h.stripedOf(id); sj != nil {
		sj.cancel()
		sj.setState(service.StateCanceled, "canceled")
		h.writeJSON(w, http.StatusOK, sj.status())
		return
	}
	h.proxyJob(w, r, id)
}

func (h *handler) jobProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if sj := h.stripedOf(id); sj != nil {
		h.writeErr(w, apiErr(http.StatusConflict,
			"striped jobs run on their dataset; use the dataset's input/output endpoints"))
		return
	}
	h.proxyJob(w, r, id)
}

func (h *handler) jobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if sj := h.stripedOf(id); sj != nil {
		h.stripedEvents(w, r, sj)
		return
	}
	h.proxyJob(w, r, id)
}

// proxyJob forwards a job request to the worker its route names.
func (h *handler) proxyJob(w http.ResponseWriter, r *http.Request, id string) {
	rt, err := h.c.routeOf(id)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	addr, ok := h.c.reg.addrOf(rt.worker)
	if !ok {
		h.writeErr(w, apiErr(http.StatusBadGateway,
			fmt.Sprintf("job %s ran on worker %s, which left the cluster", id, rt.worker)))
		return
	}
	h.proxyTo(w, r, addr)
}

// proxyTo replays the request verbatim against a worker's base URL and
// streams the response back, flushing as bytes arrive so SSE event streams
// pass through live.
func (h *handler) proxyTo(w http.ResponseWriter, r *http.Request, addr string) {
	u, err := url.Parse(addr)
	if err != nil {
		h.writeErr(w, apiErr(http.StatusBadGateway, "bad worker address: "+err.Error()))
		return
	}
	out := r.Clone(r.Context())
	out.URL.Scheme = u.Scheme
	out.URL.Host = u.Host
	out.RequestURI = ""
	out.Host = ""
	resp, err := h.c.hc.Do(out)
	if err != nil {
		h.writeErr(w, apiErr(http.StatusBadGateway, "worker call failed: "+err.Error()))
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp.Body)
}

// flushCopy copies src to w, flushing after every read so streamed
// responses (SSE, long downloads) are not buffered to completion.
func flushCopy(w http.ResponseWriter, src io.Reader) {
	fl, canFlush := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if canFlush {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// stripedEvents serves the SSE stream for a coordinator-run job, the same
// protocol the daemon speaks for its own jobs.
func (h *handler) stripedEvents(w http.ResponseWriter, r *http.Request, sj *stripedJob) {
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(ev service.Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		if canFlush {
			fl.Flush()
		}
		return true
	}

	ch, cancelSub := sj.subscribe()
	defer cancelSub()
	st := sj.status()
	if !send(service.Event{Type: service.EventState, JobID: sj.id, State: st.State, Error: st.Error}) {
		return
	}
	if st.State.Terminal() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			if !send(ev) {
				return
			}
			if ev.Type == service.EventState && ev.State.Terminal() {
				return
			}
		}
	}
}

// --- dataset surface ---

func (h *handler) createDataset(w http.ResponseWriter, r *http.Request) {
	var req service.CreateDatasetRequest
	if !h.decode(w, r, &req) {
		return
	}
	st, err := h.c.createDataset(r.Context(), req)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	h.writeJSON(w, http.StatusCreated, st)
}

func (h *handler) listDatasets(w http.ResponseWriter, r *http.Request) {
	h.writeJSON(w, http.StatusOK, h.c.datasetStatuses(r.Context()))
}

func (h *handler) datasetStatus(w http.ResponseWriter, r *http.Request) {
	st, err := h.c.datasetStatus(r.Context(), r.PathValue("id"))
	if err != nil {
		h.writeErr(w, err)
		return
	}
	h.writeJSON(w, http.StatusOK, st)
}

func (h *handler) deleteDataset(w http.ResponseWriter, r *http.Request) {
	st, err := h.c.deleteDataset(r.Context(), r.PathValue("id"))
	if err != nil {
		h.writeErr(w, err)
		return
	}
	h.writeJSON(w, http.StatusOK, st)
}

// datasetInput streams an upload to the owning worker, or splits it into
// contiguous per-stripe ranges for striped datasets.
func (h *handler) datasetInput(w http.ResponseWriter, r *http.Request) {
	p, release, err := h.c.usePlacement(r.PathValue("id"))
	if err != nil {
		h.writeErr(w, err)
		return
	}
	defer release()
	if !p.striped {
		h.proxyToWorker(w, r, p.stripes[0].worker)
		return
	}
	if want := int64(p.cfg.N) * bmmc.RecordBytes; r.ContentLength >= 0 && r.ContentLength != want {
		h.writeErr(w, apiErr(http.StatusBadRequest,
			fmt.Sprintf("input must be exactly N*%d = %d bytes, got Content-Length %d", bmmc.RecordBytes, want, r.ContentLength)))
		return
	}
	per := int64(p.scfg.N) * bmmc.RecordBytes
	h.c.mu.Lock()
	stripes := append([]stripeLoc(nil), p.stripes...)
	h.c.mu.Unlock()
	for _, s := range stripes {
		wc, err := h.c.clientFor(s.worker)
		if err != nil {
			h.writeErr(w, err)
			return
		}
		if err := wc.UploadDataset(r.Context(), s.dsID, io.LimitReader(r.Body, per)); err != nil {
			h.writeErr(w, asGatewayErr(err))
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// datasetOutput streams a download from the owning worker, or concatenates
// the stripes in logical order for striped datasets.
func (h *handler) datasetOutput(w http.ResponseWriter, r *http.Request) {
	p, release, err := h.c.usePlacement(r.PathValue("id"))
	if err != nil {
		h.writeErr(w, err)
		return
	}
	defer release()
	if !p.striped {
		h.proxyToWorker(w, r, p.stripes[0].worker)
		return
	}
	h.c.mu.Lock()
	stripes := append([]stripeLoc(nil), p.stripes...)
	h.c.mu.Unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(int64(p.cfg.N)*bmmc.RecordBytes))
	for _, s := range stripes {
		wc, err := h.c.clientFor(s.worker)
		if err == nil {
			err = wc.DownloadDataset(r.Context(), s.dsID, w)
		}
		if err != nil {
			// Headers are committed; cut the stream short.
			h.c.log.Warn("striped output aborted", "dataset", p.id, "stripe", s.dsID, "err", err)
			return
		}
	}
}

func (h *handler) proxyToWorker(w http.ResponseWriter, r *http.Request, workerID string) {
	addr, ok := h.c.reg.addrOf(workerID)
	if !ok {
		h.writeErr(w, apiErr(http.StatusBadGateway,
			fmt.Sprintf("worker %s is no longer part of the cluster", workerID)))
		return
	}
	h.proxyTo(w, r, addr)
}

func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	h.writeJSON(w, http.StatusOK, h.c.ClusterMetrics(r.Context()))
}
