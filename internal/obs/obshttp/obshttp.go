// Package obshttp mounts the debug surface the lab server and botserve
// share. It is apart from obs because net/http/pprof would otherwise
// link into every program that imports the runtime (omp imports obs):
// 1.4 MB more in examples/quickstart, and pprof's handlers registered
// on http.DefaultServeMux.
package obshttp

import (
	"net/http"
	"net/http/pprof"

	"bots/internal/obs"
)

// Mount registers GET /metrics serving reg on mux, and the
// net/http/pprof profiles under GET /debug/pprof/.
func Mount(mux *http.ServeMux, reg *obs.Registry) {
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
