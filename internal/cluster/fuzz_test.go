package cluster_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"predperf/internal/cluster"
	"predperf/internal/core"
)

// FuzzEvalRequest throws arbitrary bodies at a sim worker's /v1/eval.
// Whatever the body, the worker must not panic and must answer 200, 400
// or 413; every 200 must carry one value per requested configuration,
// each bit-identical to a local core.SimEvaluator on the same
// benchmark, trace length and metric. Small trace-length, batch and
// body limits keep accepted inputs cheap. The worker (and its
// simulation cache) lives across inputs, so cached answers are checked
// as well as fresh ones.
//
//	go test -run=NONE -fuzz=FuzzEvalRequest -fuzztime=10s ./internal/cluster
func FuzzEvalRequest(f *testing.F) {
	h := cluster.NewWorker(cluster.WorkerOptions{MaxTraceLen: 2000, MaxBatch: 4, MaxBodyBytes: 4096}).Handler()

	okCfg := `{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}`
	for _, body := range []string{
		`{"benchmark":"mcf","trace_len":1000,"configs":[` + okCfg + `]}`,
		`{"benchmark":"gzip","trace_len":2000,"metric":"edp","configs":[` + okCfg + `,{"depth":7,"rob":24,"iq":6,"lsq":6,"l2kb":256,"l2lat":20,"il1kb":8,"dl1kb":8,"dl1lat":4}]}`,
		`{"benchmark":"mcf","trace_len":500,"metric":"power","configs":[` + okCfg + `,` + okCfg + `]}`,
		`{"trace_len":1000,"configs":[` + okCfg + `]}`,
		`{"benchmark":"mcf","trace_len":0,"configs":[` + okCfg + `]}`,
		`{"benchmark":"mcf","trace_len":99999999,"configs":[` + okCfg + `]}`,
		`{"benchmark":"mcf","trace_len":1000,"configs":[]}`,
		`{"benchmark":"mcf","trace_len":1000,"configs":[` + strings.Repeat(okCfg+`,`, 4) + okCfg + `]}`,
		`{"benchmark":"mcf","trace_len":1000,"metric":"nope","configs":[` + okCfg + `]}`,
		`{"benchmark":"mcf","trace_len":1000,"configs":[{"depth":0,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}]}`,
		`{"benchmark":"mcf","trace_len":1000,"configs":[{"depth":12,"rob":9999999999,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}]}`,
		`{"benchmark":"nosuch","trace_len":1000,"configs":[` + okCfg + `]}`,
		`{"benchmark":"mcf","trace_len":1000,"zzz":1,"configs":[` + okCfg + `]}`,
		`{`,
		``,
	} {
		f.Add([]byte(body))
	}

	type evKey struct {
		bench string
		n     int
	}
	local := map[evKey]*core.SimEvaluator{}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		// A 200 means the worker decoded the body; decode it the same
		// way to learn what was asked for.
		var req cluster.EvalRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode (%v): %q", err, body)
		}
		var er cluster.EvalResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("decoding 200 answer %q: %v", rec.Body.Bytes(), err)
		}
		if len(er.Values) != len(req.Configs) {
			t.Fatalf("%d values for %d configs", len(er.Values), len(req.Configs))
		}
		metric, err := core.ParseMetric(req.Metric)
		if err != nil {
			t.Fatalf("200 for metric %q: %v", req.Metric, err)
		}
		k := evKey{req.Benchmark, req.TraceLen}
		base, ok := local[k]
		if !ok {
			if base, err = core.NewSimEvaluator(req.Benchmark, req.TraceLen); err != nil {
				t.Fatalf("200 for %+v, but the local evaluator fails: %v", k, err)
			}
			local[k] = base
		}
		ev := base.WithMetric(metric)
		for i, wc := range req.Configs {
			want, _ := ev.EvalRan(wc.Config())
			if math.Float64bits(er.Values[i]) != math.Float64bits(want) {
				t.Fatalf("values[%d] = %x for %+v, local %x", i, er.Values[i], wc, want)
			}
		}
	})
}
