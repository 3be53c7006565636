package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// maxBodyBytes bounds one request body (64 MiB — batched ingest of a few
// hundred thousand short documents fits comfortably).
const maxBodyBytes = 64 << 20

// Server is the HTTP/JSON front end over the sharded detector set (a
// single-shard Sharded is the unsharded daemon — byte-identical ids and
// verdicts).
type Server struct {
	sh *Sharded
	// statePath is the POST /v1/snapshot target ("" means stream the
	// state in the response body instead).
	statePath string
}

// NewServer wraps sh. statePath may be empty.
func NewServer(sh *Sharded, statePath string) *Server {
	return &Server{sh: sh, statePath: statePath}
}

// Handler returns the API routes:
//
//	POST /v1/docs          ingest {"text": ...} or {"texts": [...]}
//	GET  /v1/assignments/{id}  404 for an id never issued
//	GET  /v1/templates
//	GET  /v1/stats         per-shard blocks plus the rolled-up total
//	POST /v1/flush         force a mining pass over buffered documents
//	POST /v1/snapshot      persist to the state file, or stream the state back
//	GET  /healthz
//	GET  /debug/pprof/...
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/docs", s.handleDocs)
	mux.HandleFunc("GET /v1/assignments/{id}", s.handleAssignment)
	mux.HandleFunc("GET /v1/templates", s.handleTemplates)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/flush", s.handleFlush)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// docsRequest is the POST /v1/docs body: exactly one of the two forms.
type docsRequest struct {
	Text  *string  `json:"text,omitempty"`
	Texts []string `json:"texts,omitempty"`
}

// docsResponse is the array-form ingest answer.
type docsResponse struct {
	Docs []Verdict `json:"docs"`
}

func (s *Server) handleDocs(w http.ResponseWriter, r *http.Request) {
	var req docsRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	single := req.Text != nil
	if single == (req.Texts != nil) {
		httpError(w, http.StatusBadRequest, `need exactly one of "text" or "texts"`)
		return
	}
	texts := req.Texts
	if single {
		texts = []string{*req.Text}
	}
	verdicts, err := s.sh.Submit(texts)
	if err != nil {
		serveError(w, err)
		return
	}
	if single {
		writeJSON(w, http.StatusOK, verdicts[0])
		return
	}
	writeJSON(w, http.StatusOK, docsResponse{Docs: verdicts})
}

// assignmentResponse is the GET /v1/assignments/{id} answer; the id is
// global (it encodes its shard: id = local*S + shard).
type assignmentResponse struct {
	ID       int  `json:"id"`
	Shard    int  `json:"shard"`
	Template int  `json:"template"`
	Pending  bool `json:"pending"`
}

func (s *Server) handleAssignment(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 {
		httpError(w, http.StatusBadRequest, "id must be a non-negative integer")
		return
	}
	v, err := s.sh.Assignment(id)
	if err != nil {
		serveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, assignmentResponse{
		ID: v.ID, Shard: id % s.sh.Shards(), Template: v.Template, Pending: v.Pending,
	})
}

func (s *Server) handleTemplates(w http.ResponseWriter, r *http.Request) {
	infos, err := s.sh.Templates()
	if err != nil {
		serveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Templates []ShardTemplate `json:"templates"`
	}{infos})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.sh.Stats()
	if err != nil {
		serveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if err := s.sh.Flush(); err != nil {
		serveError(w, err)
		return
	}
	st, err := s.sh.Stats()
	if err != nil {
		serveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Templates   int `json:"templates"`
		PendingDocs int `json:"pending_docs"`
	}{st.Total.Templates, st.Total.PendingDocs})
}

// handleSnapshot writes the state to the server's state file, or
// streams it back in the response body (the combined manifest form,
// shard states inline) when the server has none. The target is the
// daemon's own configuration: a request with a body is refused, so no
// client can make the daemon write to a path of its choosing.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.ContentLength != 0 {
		httpError(w, http.StatusBadRequest, "snapshot takes no request body")
		return
	}
	if s.statePath == "" {
		// Buffered so a failed snapshot still gets a proper error status.
		var buf bytes.Buffer
		if err := s.sh.SnapshotTo(&buf); err != nil {
			serveError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(buf.Bytes())
		return
	}
	n, err := s.sh.Snapshot(s.statePath)
	if err != nil {
		serveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Path  string `json:"path"`
		Bytes int64  `json:"bytes"`
	}{s.statePath, n})
}

// decodeJSON parses the request body into v, writing a 400 and returning
// false on malformed input.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// serveError maps Sharded errors to HTTP statuses: a closed gate is
// 503 (the daemon is shutting down), an id never issued 404, anything
// else 500.
func serveError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrClosed) {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if errors.Is(err, ErrNotFound) {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	httpError(w, http.StatusInternalServerError, err.Error())
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{msg})
}

// writeJSON writes v with the given status. Encoding failures after the
// header is committed have no channel back to the client.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
