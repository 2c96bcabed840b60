package reconf

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/bus"
)

// This file serves the op table (control.go) over HTTP — the one operator
// listener of an App. Every op answers at /<name>, arguments as form values
// in the query or the body; /<name>/<value> supplies the first parameter in
// the path (/trace/tx-0001, /replay/filter, /health/pool.1). Results are
// indented JSON, or the op's human rendering under Accept: text/plain.
// Calls that change the system must be POSTed; GET on one is 405.

const (
	// maxOpBody caps a request body: op arguments are a handful of names.
	maxOpBody = 64 << 10
	// errorHeader carries the error message when a failed op still answers
	// with a result document (a rolled-back replacement's report).
	errorHeader = "Reconf-Error"
)

// Server is a running operator listener.
type Server struct {
	srv *http.Server
	l   net.Listener
	mux *http.ServeMux
}

// Serve starts serving the operator plane on l. Close the returned server
// to stop. The write timeout leaves room for the events long-poll plus
// response transfer; ops that can legitimately run longer extend it by
// their budget.
func (a *App) Serve(l net.Listener) *Server { return a.serve(l, maxEventWait+30*time.Second) }

func (a *App) serve(l net.Listener, writeTimeout time.Duration) *Server {
	mux := a.opMux(writeTimeout)
	// Slowloris hardening: a client must finish its headers and body
	// promptly, and a response that is not written in time is cut off.
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      writeTimeout,
	}
	go func() { _ = srv.Serve(l) }() //archlint:spawn HTTP server; exits when srv.Close is called
	return &Server{srv: srv, l: l, mux: mux}
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.l.Addr() }

// Close stops the server and closes the listener.
func (s *Server) Close() error { return s.srv.Close() }

// Handle mounts an extra handler beside the ops (polybus -pprof mounts
// /debug/pprof/ this way: profiling exposes stacks and heap contents, so it
// is never part of the table).
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// opMux registers every op of the table — and, for ops that take
// arguments, the path form of the first — anything else is 404 with the
// table's usage.
func (a *App) opMux(writeTimeout time.Duration) *http.ServeMux {
	mux := http.NewServeMux()
	for i := range ops {
		h := a.opHandler(&ops[i], writeTimeout)
		mux.Handle("/"+ops[i].name, h)
		if ops[i].params != "" {
			mux.Handle("/"+ops[i].name+"/", h)
		}
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "unknown op "+r.URL.Path+"; ops:\n"+Usage(), http.StatusNotFound)
	})
	return mux
}

func (a *App) opHandler(o *op, writeTimeout time.Duration) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxOpBody)
		if err := r.ParseForm(); err != nil { // malformed, or over the cap
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		args := r.Form
		if rest := strings.TrimPrefix(r.URL.Path, "/"+o.name+"/"); rest != r.URL.Path && rest != "" {
			names, _ := o.paramNames()
			args.Set(names[0], rest)
		}
		if o.mutating != nil && o.mutating(args) && r.Method != http.MethodPost {
			w.Header().Set("Allow", "POST")
			http.Error(w, o.name+" changes the system: use POST", http.StatusMethodNotAllowed)
			return
		}
		err := o.check(args)
		var v any
		if err == nil {
			if o.budget != nil {
				// The server-wide deadline is shorter than this op may
				// legitimately wait; give the connection the op's own. A
				// socket deadline: the kernel compares it with real time.
				deadline := time.Now().Add(o.budget(a, args) + writeTimeout)
				rc := http.NewResponseController(w)
				_ = rc.SetReadDeadline(deadline)  // unsupported only by a test recorder,
				_ = rc.SetWriteDeadline(deadline) // which has no deadline to extend
			}
			v, err = o.run(a, args)
		}
		writeResult(w, r, o, v, err)
	}
}

// statusOf classifies an op failure: what the op said itself, 404 for an
// unknown instance, and otherwise 409 — the request was understood and the
// system's current state refused it.
func statusOf(err error) int {
	var oe *opError
	switch {
	case errors.As(err, &oe):
		return oe.status
	case errors.Is(err, bus.ErrNoInstance):
		return http.StatusNotFound
	}
	return http.StatusConflict
}

func writeResult(w http.ResponseWriter, r *http.Request, o *op, v any, err error) {
	status := http.StatusOK
	if err != nil {
		status = statusOf(err)
		var oe *opError
		if !errors.As(err, &oe) || oe.result == nil {
			http.Error(w, err.Error(), status)
			return
		}
		v = oe.result
		w.Header().Set(errorHeader, err.Error())
	}
	var body string
	if raw, isRaw := v.(rawText); isRaw {
		body = string(raw)
	} else if o.text != nil && strings.Contains(r.Header.Get("Accept"), "text/plain") {
		body = o.text(v)
	}
	ctype := "text/plain; charset=utf-8"
	if body == "" {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			http.Error(w, "encode result: "+err.Error(), http.StatusInternalServerError)
			return
		}
		body, ctype = string(data), "application/json"
	}
	if !strings.HasSuffix(body, "\n") {
		body += "\n"
	}
	w.Header().Set("Content-Type", ctype)
	w.WriteHeader(status)
	_, _ = io.WriteString(w, body) // the usual cause is a client hanging up mid-response
}
