package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/obs"
	"predperf/internal/par"
	"predperf/internal/search"
)

// cModelPredictions counts scored configurations per model, so /metricz
// says which models actually take traffic.
var cModelPredictions = obs.NewCounterVec("serve.model_predictions", "model")

// wireConfig is the JSON shape of a processor configuration, using the
// same short field names as the predperf CLI's -predict flag.
type wireConfig struct {
	Depth  int `json:"depth"`
	ROB    int `json:"rob"`
	IQ     int `json:"iq"`
	LSQ    int `json:"lsq"`
	L2KB   int `json:"l2kb"`
	L2Lat  int `json:"l2lat"`
	IL1KB  int `json:"il1kb"`
	DL1KB  int `json:"dl1kb"`
	DL1Lat int `json:"dl1lat"`
}

func (w wireConfig) config() design.Config {
	return design.Config{
		PipeDepth: w.Depth, ROBSize: w.ROB, IQSize: w.IQ, LSQSize: w.LSQ,
		L2SizeKB: w.L2KB, L2Lat: w.L2Lat, IL1SizeKB: w.IL1KB, DL1SizeKB: w.DL1KB, DL1Lat: w.DL1Lat,
	}
}

func toWire(c design.Config) wireConfig {
	return wireConfig{
		Depth: c.PipeDepth, ROB: c.ROBSize, IQ: c.IQSize, LSQ: c.LSQSize,
		L2KB: c.L2SizeKB, L2Lat: c.L2Lat, IL1KB: c.IL1SizeKB, DL1KB: c.DL1SizeKB, DL1Lat: c.DL1Lat,
	}
}

// validate rejects configurations the design space cannot normalize:
// every field must be positive (IQ/LSQ sizes are re-expressed as
// fractions of ROB, so a zero ROB would divide by zero).
func (w wireConfig) validate() error {
	fields := []struct {
		name string
		v    int
	}{
		{"depth", w.Depth}, {"rob", w.ROB}, {"iq", w.IQ}, {"lsq", w.LSQ},
		{"l2kb", w.L2KB}, {"l2lat", w.L2Lat}, {"il1kb", w.IL1KB}, {"dl1kb", w.DL1KB}, {"dl1lat", w.DL1Lat},
	}
	for _, f := range fields {
		if f.v <= 0 {
			return fmt.Errorf("field %q must be positive, got %d", f.name, f.v)
		}
	}
	return nil
}

// apiError is the structured error body: {"error":{"code","message"}}.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	cErrors.Inc()
	writeJSON(w, status, map[string]apiError{
		"error": {Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// readJSON decodes a size-capped request body, mapping oversize and
// malformed bodies to structured errors. It returns false after writing
// the error response.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, "body_too_large",
				"request body exceeds the %d-byte limit", tooLarge.Limit)
			return false
		}
		writeErr(w, http.StatusBadRequest, "bad_json", "decoding request: %v", err)
		return false
	}
	return true
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeErr(w, http.StatusMethodNotAllowed, "method_not_allowed",
			"%s requires %s, got %s", r.URL.Path, method, r.Method)
		return false
	}
	return true
}

// ---- /healthz ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"models": s.reg.Len(),
		"build":  Build(),
	})
}

// ---- /metricz ----

// handleMetricz reports the process's metrics. The default is the
// internal/obs JSON snapshot (counters, gauges, histogram summaries,
// span aggregates); ?format=prom switches to Prometheus text exposition
// so any standard scraper can collect the same series.
func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "prom", "prometheus":
		w.Header().Set("Content-Type", obs.PromContentType)
		obs.WritePrometheus(w)
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		obs.Snapshot().Write(w)
	default:
		writeErr(w, http.StatusBadRequest, "bad_request",
			`unknown metrics format %q (want "json" or "prom")`, format)
	}
}

// ---- /v1/models ----

// modelInfo is one row of the GET /v1/models listing.
type modelInfo struct {
	Name       string  `json:"name"`
	Benchmark  string  `json:"benchmark,omitempty"`
	SampleSize int     `json:"sample_size"`
	Centers    int     `json:"centers"`
	AICc       float64 `json:"aicc"`
	Path       string  `json:"path,omitempty"`
	// Generation distinguishes successive holders of the name: it bumps
	// on every hot load and every retrain hot-swap, so an operator (or
	// the CI smoke test) can tell a retrained model went live.
	Generation uint64 `json:"generation"`
}

func entryInfo(e *Entry) modelInfo {
	return modelInfo{
		Name:       e.Name,
		Benchmark:  e.Model.Name,
		SampleSize: e.Model.SampleSize,
		Centers:    e.Model.Fit.NumCenters(),
		AICc:       e.Model.Fit.AICc,
		Path:       e.Path,
		Generation: e.Generation(),
	}
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	entries := s.reg.Entries()
	infos := make([]modelInfo, len(entries))
	for i, e := range entries {
		infos[i] = entryInfo(e)
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": infos})
}

// ---- /v1/models/load ----

type loadRequest struct {
	// Path of a model file saved by predperf -save, relative to the
	// server's -models directory. Absolute paths and paths escaping the
	// directory are rejected (forbidden_path), as is any load when the
	// server has no model directory.
	Path string `json:"path"`
	// Name optionally overrides the registry name (default: the model's
	// persisted benchmark name, then the file base name).
	Name string `json:"name"`
	// Dir loads every *.json in a subdirectory of the model directory
	// instead of one file ("." reloads the model directory itself).
	// Confined like Path.
	Dir string `json:"dir"`
}

func (s *Server) handleModelsLoad(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req loadRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	switch {
	case req.Dir != "":
		rel, err := s.reg.ClientPath(req.Dir)
		if err != nil {
			writeErr(w, http.StatusForbidden, "forbidden_path", "%v", err)
			return
		}
		names, err := s.reg.LoadDir(s.reg.resolve(rel))
		if err != nil {
			writeErr(w, http.StatusBadRequest, "load_failed", "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"loaded": names})
	case req.Path != "":
		rel, err := s.reg.ClientPath(req.Path)
		if err != nil {
			writeErr(w, http.StatusForbidden, "forbidden_path", "%v", err)
			return
		}
		name, err := s.reg.LoadFile(rel, req.Name)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "load_failed", "%v", err)
			return
		}
		e, _ := s.reg.Get(name)
		writeJSON(w, http.StatusOK, map[string]any{"loaded": []string{name}, "model": entryInfo(e)})
	default:
		writeErr(w, http.StatusBadRequest, "bad_request", `"path" or "dir" is required`)
	}
}

// ---- /v1/predict ----

type predictRequest struct {
	Model string `json:"model"`
	// Config predicts one configuration; Configs a batch. Exactly one
	// of the two must be present.
	Config  *wireConfig  `json:"config,omitempty"`
	Configs []wireConfig `json:"configs,omitempty"`
}

// prediction is one scored configuration. Config echoes the machine
// actually scored: the input after clamping to the design space's
// ranges and quantizing to its discrete levels.
type prediction struct {
	Config  wireConfig `json:"config"`
	Value   float64    `json:"value"`
	Cached  bool       `json:"cached"`
	Clamped bool       `json:"clamped,omitempty"`
}

type predictResponse struct {
	Model       string       `json:"model"`
	Predictions []prediction `json:"predictions"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	_, end := obs.StartSpanCtx(r.Context(), "serve.predict")
	defer end()
	var req predictRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Model == "" {
		writeErr(w, http.StatusBadRequest, "bad_request", `"model" is required`)
		return
	}
	entry, ok := s.reg.Get(req.Model)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown_model",
			"no model %q is loaded (GET /v1/models lists the registry)", req.Model)
		return
	}
	var batch []wireConfig
	switch {
	case req.Config != nil && len(req.Configs) > 0:
		writeErr(w, http.StatusBadRequest, "bad_request", `give "config" or "configs", not both`)
		return
	case req.Config != nil:
		batch = []wireConfig{*req.Config}
	case len(req.Configs) > 0:
		batch = req.Configs
	default:
		writeErr(w, http.StatusBadRequest, "bad_request", `"config" or "configs" is required`)
		return
	}
	if len(batch) > s.opt.MaxBatch {
		writeErr(w, http.StatusRequestEntityTooLarge, "batch_too_large",
			"batch of %d exceeds the %d-configuration limit", len(batch), s.opt.MaxBatch)
		return
	}
	for i, wc := range batch {
		if err := wc.validate(); err != nil {
			writeErr(w, http.StatusBadRequest, "invalid_config", "configs[%d]: %v", i, err)
			return
		}
	}
	cPredicts.Inc()
	cBatchPts.Add(int64(len(batch)))
	cModelPredictions.With(req.Model).Add(int64(len(batch)))
	var preds []prediction
	if len(batch) == 1 {
		// A single prediction never pays worker-pool dispatch.
		preds = []prediction{s.predictOne(entry, batch[0].config())}
	} else {
		cfgs := make([]design.Config, len(batch))
		for i, wc := range batch {
			cfgs[i] = wc.config()
		}
		preds = s.predictBatch(entry, cfgs)
	}
	writeJSON(w, http.StatusOK, predictResponse{Model: req.Model, Predictions: preds})
}

// cacheKey is the LRU key for one quantized configuration: the entry
// generation retires every cached value for a name when a hot-reload
// replaces its model (stale entries stop matching and age out).
func cacheKey(e *Entry, q design.Config) string {
	return e.Name + "\x00" + strconv.FormatUint(e.gen, 10) + "\x00" + q.Key()
}

// predictOne scores one configuration: clamp and quantize it through
// the model's design space (the same Decode∘Encode mapping used on the
// training sample), then serve from the LRU cache or evaluate the RBF
// network. The cache key is the quantized machine, so raw inputs that
// snap to the same design point share an entry. The entry generation in
// the key retires every cached value for a name when a hot-reload
// replaces its model; stale entries then age out of the LRU instead of
// being served.
func (s *Server) predictOne(e *Entry, cfg design.Config) prediction {
	m := e.Model
	q := m.Space.Decode(m.Space.Encode(cfg), m.SampleSize)
	p := prediction{Config: toWire(q), Clamped: q != cfg}
	key := cacheKey(e, q)
	if v, ok := s.cache.Get(key); ok {
		cCacheHits.Inc()
		p.Value, p.Cached = v, true
	} else {
		cCacheMiss.Inc()
		p.Value = m.PredictConfig(q)
		s.cache.Put(key, p.Value)
	}
	// Shadow monitoring happens after the value is final and never
	// touches p: the served response is byte-identical with sampling on
	// or off.
	s.shadow.offer(e, q, p.Value)
	return p
}

// predictBatchChunk is how many configurations one worker scores per
// vectorized call when a large batch is split across the pool.
const predictBatchChunk = 256

// predictBatch scores a batch of configurations with the compiled RBF
// evaluator: quantize every input, serve what the LRU already holds,
// then evaluate all cache misses in one blocked design-matrix pass
// (chunked across the worker pool when the miss set is large — fixed
// slots, so results are deterministic). Per-config semantics are
// identical to predictOne — same quantization, cache keys, generation
// handling, and shadow sampling — and the values are bit-identical to
// the scalar path, so a batch answers exactly what its configurations
// would answer one at a time.
func (s *Server) predictBatch(e *Entry, cfgs []design.Config) []prediction {
	m := e.Model
	preds := make([]prediction, len(cfgs))
	missIdx := make([]int, 0, len(cfgs))
	missXs := make([][]float64, 0, len(cfgs))
	quant := make([]design.Config, len(cfgs))
	for i, cfg := range cfgs {
		q := m.Space.Decode(m.Space.Encode(cfg), m.SampleSize)
		quant[i] = q
		preds[i] = prediction{Config: toWire(q), Clamped: q != cfg}
		if v, ok := s.cache.Get(cacheKey(e, q)); ok {
			cCacheHits.Inc()
			preds[i].Value, preds[i].Cached = v, true
			s.shadow.offer(e, q, v)
			continue
		}
		cCacheMiss.Inc()
		missIdx = append(missIdx, i)
		missXs = append(missXs, m.Space.Encode(q))
	}
	if len(missIdx) == 0 {
		return preds
	}
	vals := make([]float64, len(missXs))
	cm := m.Fit.Compiled()
	chunks := (len(missXs) + predictBatchChunk - 1) / predictBatchChunk
	par.For(s.opt.Workers, chunks, func(ci int) {
		lo := ci * predictBatchChunk
		hi := lo + predictBatchChunk
		if hi > len(missXs) {
			hi = len(missXs)
		}
		cm.PredictBatchTo(vals[lo:hi], missXs[lo:hi])
	})
	for a, i := range missIdx {
		q := quant[i]
		preds[i].Value = vals[a]
		s.cache.Put(cacheKey(e, q), vals[a])
		s.shadow.offer(e, q, vals[a])
	}
	return preds
}

// ---- /v1/search ----

type searchRequest struct {
	Model string `json:"model"`
	// GridLevels caps the per-parameter enumeration resolution
	// (default 4, the search package's default).
	GridLevels int `json:"grid_levels"`
	// Shortlist is how many best-predicted candidates are verified
	// (default 8).
	Shortlist int `json:"shortlist"`
	// Verify selects shortlist verification: "sim" demands the
	// cycle-level simulator (error if the model names no benchmark),
	// "model" skips simulation, "auto" (default) prefers the simulator
	// and falls back to the model.
	Verify string `json:"verify"`
}

type searchCandidate struct {
	Config    wireConfig `json:"config"`
	Predicted float64    `json:"predicted"`
	Actual    float64    `json:"actual"`
}

type searchResponse struct {
	Model      string            `json:"model"`
	Best       searchCandidate   `json:"best"`
	Evaluated  int               `json:"evaluated"`
	Verified   int               `json:"verified"`
	VerifiedBy string            `json:"verified_by"` // "simulator" or "model"
	Shortlist  []searchCandidate `json:"shortlist"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	ctx, end := obs.StartSpanCtx(r.Context(), "serve.search")
	defer end()
	var req searchRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	if req.Model == "" {
		writeErr(w, http.StatusBadRequest, "bad_request", `"model" is required`)
		return
	}
	entry, ok := s.reg.Get(req.Model)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown_model",
			"no model %q is loaded (GET /v1/models lists the registry)", req.Model)
		return
	}
	var (
		ev         core.Evaluator
		verifiedBy string
	)
	switch req.Verify {
	case "", "auto":
		if sim, err := entry.simEvaluator(s.opt.SearchTraceLen); err == nil {
			ev, verifiedBy = sim, "simulator"
		} else {
			ev, verifiedBy = core.FuncEvaluator(entry.Model.PredictConfig), "model"
		}
	case "sim":
		sim, err := entry.simEvaluator(s.opt.SearchTraceLen)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "no_simulator",
				"model %q cannot be simulator-verified: %v", req.Model, err)
			return
		}
		ev, verifiedBy = sim, "simulator"
	case "model":
		ev, verifiedBy = core.FuncEvaluator(entry.Model.PredictConfig), "model"
	default:
		writeErr(w, http.StatusBadRequest, "bad_request",
			`"verify" must be "auto", "sim", or "model", got %q`, req.Verify)
		return
	}
	cSearches.Inc()
	// A pool-backed evaluator's worker hops carry this request's trace
	// (or its unsampled identity) and stop when the client goes away.
	res, err := search.Minimize(ctx, entry.Model, ev, search.Options{
		Space:      entry.Model.Space,
		GridLevels: req.GridLevels,
		Shortlist:  req.Shortlist,
	})
	if errors.Is(err, search.ErrVerify) {
		writeErr(w, http.StatusBadGateway, "verify_failed", "%v", err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, "search_failed", "%v", err)
		return
	}
	resp := searchResponse{
		Model:      req.Model,
		Evaluated:  res.Evaluated,
		Verified:   res.Verified,
		VerifiedBy: verifiedBy,
	}
	for _, c := range res.Shortlist {
		resp.Shortlist = append(resp.Shortlist, searchCandidate{
			Config: toWire(c.Config), Predicted: c.Predicted, Actual: c.Actual,
		})
	}
	resp.Best = searchCandidate{
		Config:    toWire(res.Best),
		Predicted: entry.Model.PredictConfig(res.Best),
		Actual:    res.BestValue,
	}
	writeJSON(w, http.StatusOK, resp)
}
