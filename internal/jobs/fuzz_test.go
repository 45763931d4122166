package jobs

import (
	"testing"
	"unicode/utf8"
)

// FuzzJobRequest hammers the job-submission JSON decoder: whatever the
// bytes, ParseRequest must not panic, and anything it accepts must
// satisfy every documented bound — the same bounds the HTTP layer
// relies on to keep one request from exhausting the server — and name a
// search explore can run (Request.options succeeds).
func FuzzJobRequest(f *testing.F) {
	f.Add([]byte(`{"source":"int main() { return 0; }"}`))
	f.Add([]byte(`{"source":"x","close":"naive","naive_domain":3,"priority":9}`))
	f.Add([]byte(`{"source":"x","engine":"bytecode","max_states":100,"attempt_states":10}`))
	f.Add([]byte(`{"source":"x","workers":64,"max_incidents":256,"trace":true}`))
	f.Add([]byte(`{"source":"x","por":"dynamic","search":"priority"}`)) // the deleted search key: refused as unknown
	f.Add([]byte(`{"source":"x","no_por":true,"por":"dynamic"}`))
	f.Add([]byte(`{"source":"x","por":"bogus"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"source":`))
	f.Add([]byte(`[{"source":"x"}]`))
	f.Add([]byte(`{"source":"x","priority":-1}`))
	f.Add([]byte(`{"source":"x","close":"bogus"}`))
	f.Add([]byte{0xff, 0xfe, '{', '}'})
	f.Add([]byte(`{"source":"x","engine":"ref"}`))
	f.Add([]byte(`{"source":"x","engine":"slots"}`)) // the tier deleted in PR 17: refused like any unknown name
	f.Add([]byte(`{"source":"x","livenes":true}`))   // a misspelt key: refused, not ignored
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		if err != nil {
			if req != nil {
				t.Fatal("ParseRequest returned a request AND an error")
			}
			return
		}
		if req.Source == "" || len(req.Source) > MaxSourceBytes || !utf8.ValidString(req.Source) {
			t.Fatalf("accepted invalid source (len %d)", len(req.Source))
		}
		if req.Priority < 0 || req.Priority > MaxPriority {
			t.Fatalf("accepted priority %d", req.Priority)
		}
		if req.Workers < 0 || req.Workers > maxRequestWorkers {
			t.Fatalf("accepted workers %d", req.Workers)
		}
		if req.MaxIncidents < 0 || req.MaxIncidents > maxRequestIncidents {
			t.Fatalf("accepted max_incidents %d", req.MaxIncidents)
		}
		if req.MaxDepth < 0 || req.MaxStates < 0 || req.AttemptStates < 0 || req.AttemptTimeoutMS < 0 {
			t.Fatal("accepted a negative budget")
		}
		if req.Close == "naive" && (req.NaiveDomain < 1 || req.NaiveDomain > maxNaiveDomain) {
			t.Fatalf("accepted naive close with domain %d", req.NaiveDomain)
		}
		if _, err := req.options(); err != nil {
			t.Fatalf("accepted a request whose options are refused: %v", err)
		}
	})
}
