package e2ebench

import (
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lemonade/internal/fault"
	"lemonade/internal/registry"
)

// The traced run records spans from the benchmark's own seam
// decorators: an http.RoundTripper handed to api.WithHTTPClient, an
// http.Handler around Server.Handler(), a registry.Store under the
// breaker and a fault.FS under the WAL. The program under test is not
// changed. Spans of one operation share the op ID the client span puts
// in its context; the RoundTripper carries it to the server in the
// opHeader request header. Store spans carry the architecture ID from
// the WAL record, which the handler span also knows from its URL.

// opHeader carries the benchmark's op ID from client to handler.
const opHeader = "X-Lemonade-Bench-Op"

// SpanKind names the boundary a span was recorded at.
type SpanKind uint8

const (
	spanOp      SpanKind = iota // the benchmark's call into api.Client / ClusterClient
	spanRT                      // RoundTripper: request sent until response body closed
	spanHandler                 // server handler
	spanAppend                  // registry.Store.Append under the breaker
	spanWait                    // registry.Ticket.Wait
	spanWrite                   // fault.File.Write
	spanSync                    // fault.File.Sync
	spanKinds
)

// Route names the operation class of op and handler spans.
type Route uint8

const (
	routeOther Route = iota
	routeAccess
	routeStatus
	routeProvision
	routeStress
	routeClusterAccess
	routeClusterShare
	routeMetrics
	routes
)

var routeNames = [routes]string{"other", "access", "status", "provision", "stress", "cluster_access", "cluster_share", "metrics"}

// Span is one timed interval at a layer boundary.
type Span struct {
	Kind  SpanKind
	Route Route
	Node  int    // server index; -1 when not known
	Op    uint64 // op ID; 0 when the span is not tied to a client op
	Arch  string // architecture (or share) ID, when the boundary knows it
	Start int64
	End   int64
	Bytes int64 // response bytes (handler), bytes written (write)
	Snap  bool  // write/sync against a snapshot file rather than the log
}

// Dur is the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. Spans are only kept
// while the tracer is on, so set-up traffic does not pollute the timed
// phase's figures.
type Tracer struct {
	now  func() int64
	on   atomic.Bool
	next atomic.Uint64

	mu    sync.Mutex
	spans [spanKinds][]Span // guarded by mu

	dialMu sync.Mutex
	dials  map[string]int // guarded by dialMu; connections dialed per server address
}

// NewTracer returns a tracer reading time from now. It starts off.
func NewTracer(now func() int64) *Tracer {
	return &Tracer{now: now, dials: make(map[string]int)}
}

// SetOn starts or stops span collection.
func (t *Tracer) SetOn(on bool) { t.on.Store(on) }

func (t *Tracer) record(s Span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans[s.Kind] = append(t.spans[s.Kind], s)
	t.mu.Unlock()
}

// Spans returns the recorded spans of kind k.
func (t *Tracer) Spans(k SpanKind) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[k]
}

// MaxDials is the largest number of connections dialed to any one
// server address.
func (t *Tracer) MaxDials() int {
	t.dialMu.Lock()
	defer t.dialMu.Unlock()
	m := 0
	for _, n := range t.dials {
		m = max(m, n)
	}
	return m
}

type opKey struct{}

// opCtx is what a client op span hands down through the context.
type opCtx struct{ id uint64 }

// StartOp opens a client op span: it returns the context to pass to the
// client call and the function that closes the span.
func (t *Tracer) StartOp(ctx context.Context, route Route, arch string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	id := t.next.Add(1)
	start := t.now()
	return context.WithValue(ctx, opKey{}, opCtx{id: id}), func() {
		t.record(Span{Kind: spanOp, Route: route, Node: -1, Op: id, Arch: arch, Start: start, End: t.now()})
	}
}

func opFrom(ctx context.Context) uint64 {
	if oc, ok := ctx.Value(opKey{}).(opCtx); ok {
		return oc.id
	}
	return 0
}

// transport is the traced http.RoundTripper: it stamps the op ID on the
// request and times it from send until the response body is closed,
// which is when api.Client has read all of it.
type transport struct {
	t     *Tracer
	inner http.RoundTripper
	nodes map[string]int // host:port -> server index
}

func (tr *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := opFrom(req.Context())
	req = req.Clone(req.Context())
	req.Header.Set(opHeader, strconv.FormatUint(op, 10))
	node, ok := tr.nodes[req.URL.Host]
	if !ok {
		node = -1
	}
	start := tr.t.now()
	resp, err := tr.inner.RoundTrip(req)
	if err != nil {
		tr.t.record(Span{Kind: spanRT, Node: node, Op: op, Start: start, End: tr.t.now()})
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		tr.t.record(Span{Kind: spanRT, Node: node, Op: op, Start: start, End: tr.t.now()})
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// countingDialer counts connections per address for api.conns_opened.
func (t *Tracer) countingDialer(inner func(ctx context.Context, network, addr string) (net.Conn, error)) func(ctx context.Context, network, addr string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		t.dialMu.Lock()
		t.dials[addr]++
		t.dialMu.Unlock()
		return inner(ctx, network, addr)
	}
}

// routeOf classifies a request by method and path shape.
func routeOf(method, path string) (Route, string) {
	switch {
	case path == "/metrics":
		return routeMetrics, ""
	case path == "/v1/cluster/access":
		return routeClusterAccess, ""
	case path == "/v1/cluster/shares":
		return routeClusterShare, ""
	case path == "/v1/architectures" && method == http.MethodPost:
		return routeProvision, ""
	}
	rest, ok := strings.CutPrefix(path, "/v1/architectures/")
	if !ok {
		return routeOther, ""
	}
	id, verb, _ := strings.Cut(rest, "/")
	switch {
	case verb == "access":
		return routeAccess, id
	case verb == "stress":
		return routeStress, id
	case verb == "" && method == http.MethodGet:
		return routeStatus, id
	}
	return routeOther, id
}

// handler is the traced http.Handler around Server.Handler().
type handler struct {
	t     *Tracer
	node  int
	inner http.Handler
}

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
	route, arch := routeOf(r.Method, r.URL.Path)
	cw := &countingWriter{ResponseWriter: w}
	start := h.t.now()
	h.inner.ServeHTTP(cw, r)
	h.t.record(Span{Kind: spanHandler, Route: route, Node: h.node, Op: op, Arch: arch, Start: start, End: h.t.now(), Bytes: cw.n})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// store is the traced registry.Store, placed under the breaker.
type store struct {
	t     *Tracer
	node  int
	inner registry.Store
}

func recordArch(recs []registry.Record) string {
	if len(recs) == 0 {
		return ""
	}
	switch r := recs[0]; {
	case r.Access != nil:
		return r.Access.ID
	case r.Provision != nil:
		return r.Provision.ID
	case r.Stress != nil:
		return r.Stress.ID
	case r.Remap != nil:
		return r.Remap.ID
	case r.Retire != nil:
		return r.Retire.ID
	}
	return ""
}

func (s *store) Append(recs []registry.Record) (registry.Ticket, error) {
	arch := recordArch(recs)
	start := s.t.now()
	tkt, err := s.inner.Append(recs)
	s.t.record(Span{Kind: spanAppend, Node: s.node, Arch: arch, Start: start, End: s.t.now()})
	if err != nil {
		return nil, err
	}
	return &ticket{s: s, arch: arch, inner: tkt}, nil
}

type ticket struct {
	s     *store
	arch  string
	inner registry.Ticket
}

func (k *ticket) Wait() error {
	start := k.s.t.now()
	err := k.inner.Wait()
	k.s.t.record(Span{Kind: spanWait, Node: k.s.node, Arch: k.arch, Start: start, End: k.s.t.now()})
	return err
}

func (k *ticket) Done() { k.inner.Done() }

// fileSystem is the traced fault.FS under the WAL: it times every
// write and sync and counts bytes written.
type fileSystem struct {
	fault.FS
	t    *Tracer
	node int
}

func (f *fileSystem) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f, snap: strings.HasPrefix(filepath.Base(name), "snap-")}, nil
}

type tracedFile struct {
	fault.File
	fs   *fileSystem
	snap bool
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := f.fs.t.now()
	n, err := f.File.Write(p)
	f.fs.t.record(Span{Kind: spanWrite, Node: f.fs.node, Start: start, End: f.fs.t.now(), Bytes: int64(n), Snap: f.snap})
	return n, err
}

func (f *tracedFile) Sync() error {
	start := f.fs.t.now()
	err := f.File.Sync()
	f.fs.t.record(Span{Kind: spanSync, Node: f.fs.node, Start: start, End: f.fs.t.now(), Snap: f.snap})
	return err
}
