package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzPredictBody throws arbitrary bodies at /v1/predict. Whatever the
// body, the handler must not panic and must answer 200, 400, 404 or
// 413; every 200 must carry one prediction per requested configuration,
// each bit-identical to the in-process m.PredictConfig of the quantized
// configuration it echoes. The server (and its LRU cache) lives across
// inputs, so cached answers are checked as well as fresh ones.
//
//	go test -run=NONE -fuzz=FuzzPredictBody -fuzztime=10s ./internal/serve
func FuzzPredictBody(f *testing.F) {
	m := buildTestModel(f, "fuzz")
	// A small body and batch limit keep both 413 answers reachable.
	s := New(Options{MaxBodyBytes: 2048, MaxBatch: 4, CacheSize: 16})
	if err := s.Registry().Add("fuzz", m, ""); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()

	okCfg := `{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}`
	for _, body := range []string{
		`{"model":"fuzz","config":` + okCfg + `}`,
		`{"model":"fuzz","configs":[` + okCfg + `,` + okCfg + `]}`,
		`{"model":"fuzz","config":{"depth":12,"rob":100000,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}}`,
		`{"model":"fuzz","config":{"depth":12,"rob":0,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}}`,
		`{"model":"fuzz","configs":[` + strings.Repeat(okCfg+`,`, 4) + okCfg + `]}`,
		`{"model":"fuzz","config":` + okCfg + `,"configs":[` + okCfg + `]}`,
		`{"model":"nope","config":` + okCfg + `}`,
		`{"config":` + okCfg + `}`,
		`{"model":"fuzz","configs":[]}`,
		`{"model":"fuzz"}`,
		`{`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		// A 200 means the server decoded the body; decode it the same
		// way to learn how many configurations were asked for.
		var req predictRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode (%v): %q", err, body)
		}
		asked := len(req.Configs)
		if req.Config != nil {
			asked = 1
		}
		var pr predictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
			t.Fatalf("decoding 200 answer %s: %v", rec.Body.Bytes(), err)
		}
		if pr.Model != req.Model || len(pr.Predictions) != asked {
			t.Fatalf("model %q with %d predictions, want %q with %d", pr.Model, len(pr.Predictions), req.Model, asked)
		}
		for i, p := range pr.Predictions {
			if want := m.PredictConfig(p.Config.config()); p.Value != want {
				t.Fatalf("predictions[%d] = %x for %+v, want %x", i, p.Value, p.Config, want)
			}
		}
	})
}
