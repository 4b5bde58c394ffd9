package obs

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"axmemo/internal/cli"
)

// debugReg is the registry behind the process-global expvar variable.
// expvar panics on duplicate names, so the variable is published once
// and re-pointed at the most recently served registry.
var debugReg struct {
	once sync.Once
	mu   sync.Mutex
	r    *Registry
}

// DebugHandler returns an http.Handler exposing the standard live
// debug surface for long-running processes:
//
//	/debug/vars    expvar (Go runtime vars + the registry, Everything
//	               mode: volatile families included)
//	/debug/pprof/  runtime profiles (CPU, heap, goroutine, ...)
//
// The registry is published under the expvar name "axmemo_metrics" as
// its live snapshot, so `curl .../debug/vars | jq .axmemo_metrics`
// follows a run in flight.
func DebugHandler(r *Registry) http.Handler {
	debugReg.mu.Lock()
	debugReg.r = r
	debugReg.mu.Unlock()
	debugReg.once.Do(func() {
		expvar.Publish("axmemo_metrics", expvar.Func(func() any {
			debugReg.mu.Lock()
			reg := debugReg.r
			debugReg.mu.Unlock()
			var v any
			// The snapshot is already JSON; round-trip it so expvar
			// embeds an object rather than a string.
			if err := json.Unmarshal(reg.SnapshotJSON(Everything), &v); err != nil {
				return map[string]string{"error": err.Error()}
			}
			return v
		}))
	})
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug starts the debug server on addr (e.g. "localhost:6060";
// ":0" picks a free port) and serves until the process exits or close
// is called.  It returns the bound address for logging and tests.
func ServeDebug(addr string, r *Registry) (boundAddr string, close func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := cli.NewHTTPServer(DebugHandler(r))
	go srv.Serve(ln) //nolint:errcheck // closed via srv.Close
	return ln.Addr().String(), func() { srv.Close() }, nil
}
