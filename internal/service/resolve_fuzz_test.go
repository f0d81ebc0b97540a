package service

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzResolveRequest feeds arbitrary bytes, as a request body, through the
// handlers' decoding into a YieldRequest and an OptimizeRequest, resolves
// whatever decodes and builds its key. Request bodies are the daemon's
// network input, so no body may panic. A resolved yield spec, spelled out
// as a request, must resolve to the identical spec and yieldKey; a resolved
// optimize request must resolve to itself and its optimizeKey.
func FuzzResolveRequest(f *testing.F) {
	for _, body := range []string{
		`{"scenario":"commonsource"}`,
		`{"scenario":"commonsource","n":4096,"seed":1}`,
		`{"scenario":"foldedcascode","x":[1,2,3],"sampler":"lhs"}`,
		`{"scenario":"telescopic","n":-5,"seed":18446744073709551615,"sampler":"pmc"}`,
		`{"scenario":"commonsource-tran","tran":{"tstop":2e-6,"step":1e-9,"mode":"fixed"}}`,
		`{"scenario":"foldedcascode-tran","tran":{"tstop":-1}}`,
		`{"scenario":"commonsource-tran","tran":{"tstop":1e-12}}`,
		`{"scenario":"commonsource","tran":{}}`,
		`{"scenario":"commonsource-spice","x":[4e-05,3e-05,1e-06,6e-05],"n":1}`,
		`{"scenario":"foldedcascode","method":"oo","optimizer":"lineasybo","max_sims":300,"max_gens":2}`,
		`{"scenario":"telescopic","method":"fixed","max_sims":-1,"seed":0}`,
		`{"scenario":"commonsource","optimizer":"nope"}`,
		`{"scenario":"nope"}`,
		`{"unknown":1}`,
		`{"scenario":"commonsource"} trailing`,
		`[]`,
		`null`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var yreq YieldRequest
		if decodeBody(bytes.NewReader(body), &yreq) == nil {
			if spec, _, _, err := ResolveYield(yreq); err == nil {
				again, _, _, err := ResolveYield(specRequest(spec))
				if err != nil {
					t.Fatalf("resolved spec %+v does not resolve again: %v", spec, err)
				}
				if !reflect.DeepEqual(again, spec) || yieldKey(again) != yieldKey(spec) {
					t.Fatalf("spec %+v resolves again to %+v (key %q, was %q)", spec, again, yieldKey(again), yieldKey(spec))
				}
			}
		}
		var oreq OptimizeRequest
		if decodeBody(bytes.NewReader(body), &oreq) == nil {
			if req, _, err := ResolveOptimize(oreq); err == nil {
				again, _, err := ResolveOptimize(req)
				if err != nil {
					t.Fatalf("resolved request %+v does not resolve again: %v", req, err)
				}
				if !reflect.DeepEqual(again, req) || optimizeKey(again) != optimizeKey(req) {
					t.Fatalf("request %+v resolves again to %+v (key %q, was %q)", req, again, optimizeKey(again), optimizeKey(req))
				}
			}
		}
	})
}
