package server

import (
	"bytes"
	"net/http/httptest"
	"testing"
)

// FuzzRequestDecoders feeds arbitrary bytes, as a POST body, through
// decodeStrict into each request DTO and then through that DTO's
// resolve or validate step, the parse-time half of every POST handler;
// nothing is simulated. No body may panic, and every rejection must
// map to a 4xx through errorStatus: a malformed request is the
// client's error, never the server's 500. The seeds are the bodies
// README documents plus a few rejections.
func FuzzRequestDecoders(f *testing.F) {
	for _, body := range []string{
		``,
		`{"quick":true}`,
		`{"design":"CryoSP (77K, CryoBus)","workload":"ferret",
          "config":{"warmup_cycles":4000,"measure_cycles":16000,"seed":1}}`,
		`{"quick":true,"strategy":"random","budget":8,"seed":7}`,
		`{"quick":true,"budget":4,"strategy":"random","seed":7}`,
		`{"quick":true,"temps_k":[77,77]}`,
		`{"quick":true,"assignments":[{"name":"x","tier_k":-1,"mem_k":77}]}`,
		`{"workers":-1}`,
		`{"quick":true}{}`,
		`{"quikc":true}`,
		`{"quick":true,"checkpoint_every":1}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		decode := func(v any) error {
			return decodeStrict(httptest.NewRequest("POST", "/", bytes.NewReader(body)), v)
		}
		check := func(dto string, err error) {
			if err == nil {
				return
			}
			if code := errorStatus(err); code < 400 || code > 499 {
				t.Fatalf("%s: body %q rejected with status %d: %v", dto, body, code, err)
			}
		}
		var sd simulateDTO
		err := decode(&sd)
		if err == nil {
			_, _, _, err = sd.resolve()
		}
		check("simulate", err)

		var st stageDTO
		if err = decode(&st); err == nil {
			_, _, err = st.resolve()
		}
		check("stage", err)

		var dd dseDTO
		if err = decode(&dd); err == nil {
			_, err = dd.dseConfig()
		}
		check("dse", err)

		var od optionsDTO
		if err = decode(&od); err == nil {
			_, err = od.options()
		}
		check("options", err)
	})
}
