package serve

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
)

// HTTPMux returns the observability surface every daemon serves, on a
// private mux so that nothing is exposed unless registered on it
// (profiling included):
//
//	/metrics     metrics() as indented JSON
//	/healthz     the body health() returns, as indented JSON, with
//	             status 503 when it reports unhealthy
//	/debug/vars  expvar's variables plus metrics() under name
//
// The metrics object is not published in expvar's process-wide
// registry, so building the surface more than once is safe.
func HTTPMux(name string, metrics func() any, health func() (body any, healthy bool)) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, metrics())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		body, healthy := health()
		status := http.StatusOK
		if !healthy {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, body)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprint(w, "{\n")
		expvar.Do(func(kv expvar.KeyValue) { fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value) })
		fmt.Fprintf(w, "%q: %s\n}\n", name, expvar.Func(metrics))
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, fmt.Sprintf("encode: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(buf, '\n'))
}
