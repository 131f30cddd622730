package main

// Unified scheme-source loading: `ftroute serve`, `ftroute query` and
// `ftroute proxy` accept one -in reference that may name a monolithic
// scheme file, a shard manifest, a manifest's directory, or an http(s)
// URL of any of those — ftrouting.Open dispatches on the artifact-kind
// header and the reference's shape, so the caller never declares which
// one it has. A URL reference (or a -shard-store override) makes the
// remote backend the shard store: the daemon fetches shards on demand,
// verifying each against the manifest's recorded checksum and scheme
// digest before install.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ftrouting"
	"ftrouting/internal/blob"
	"ftrouting/internal/obs"
	"ftrouting/serve"
)

// sourceFlags is the shared scheme-source flag surface: the -in
// reference plus the remote-fetch knobs and the -shard-store override.
type sourceFlags struct {
	in           *string
	shardStore   *string
	fetchTimeout *time.Duration
	fetchRetries *int
	fetchBackoff *time.Duration
}

// addSourceFlags declares the source flags on a FlagSet; def and what
// are the -in default and help text.
func addSourceFlags(fs *flag.FlagSet, def, what string) *sourceFlags {
	return &sourceFlags{
		in: fs.String("in", def, what),
		shardStore: fs.String("shard-store", "",
			"fetch manifest shards from this directory or http(s) base URL instead of alongside the manifest (so a replica needs only manifest.ftm on disk)"),
		fetchTimeout: fs.Duration("fetch-timeout", blob.DefaultFetchTimeout,
			"remote fetch: per-attempt timeout (0 removes the bound)"),
		fetchRetries: fs.Int("fetch-retries", blob.DefaultFetchRetries,
			"remote fetch: extra attempts after the first (0 disables retrying)"),
		fetchBackoff: fs.Duration("fetch-backoff", blob.DefaultFetchBackoff,
			"remote fetch: delay before the first retry (doubling per retry, jittered)"),
	}
}

// fetchOptions maps the flag values onto blob.HTTPOptions, translating
// the flags' "0 means off" convention to the options' negative one.
func (sf *sourceFlags) fetchOptions() blob.HTTPOptions {
	o := blob.HTTPOptions{Timeout: *sf.fetchTimeout, Retries: *sf.fetchRetries, Backoff: *sf.fetchBackoff}
	if o.Timeout == 0 {
		o.Timeout = -1
	}
	if o.Retries == 0 {
		o.Retries = -1
	}
	return o
}

// open resolves the -in reference and applies the -shard-store
// override.
func (sf *sourceFlags) open() (*ftrouting.Source, error) {
	src, err := ftrouting.OpenWith(*sf.in, ftrouting.OpenOptions{Fetch: sf.fetchOptions()})
	if err != nil {
		return nil, err
	}
	if *sf.shardStore == "" {
		return src, nil
	}
	m := src.Manifest()
	if m == nil {
		return nil, fmt.Errorf("-shard-store needs a shard manifest, but %s holds a monolithic scheme", src.Ref())
	}
	if ref := *sf.shardStore; strings.HasPrefix(ref, "http://") || strings.HasPrefix(ref, "https://") {
		store, err := blob.NewHTTP(ref, sf.fetchOptions())
		if err != nil {
			return nil, err
		}
		m.SetStore(store)
	} else {
		m.SetStore(blob.NewDir(ref))
	}
	return src, nil
}

// Shared daemon plumbing of `ftroute serve` and `ftroute proxy`.
const daemonShutdownGrace = 10 * time.Second

// daemonFlags is the shared observability flag surface of `ftroute
// serve` and `ftroute proxy`.
type daemonFlags struct {
	metrics   *string
	logLevel  *string
	logSample *int
	debugAddr *string
}

// addDaemonFlags declares the shared daemon flags on a FlagSet.
func addDaemonFlags(fs *flag.FlagSet) *daemonFlags {
	return &daemonFlags{
		metrics:   fs.String("metrics", "on", "Prometheus metrics at GET /metrics: on|off"),
		logLevel:  fs.String("log-level", "info", "structured access log on stderr: debug|info|warn|error|off (warn shows only failing requests)"),
		logSample: fs.Int("log-sample", 1, "log every Nth successful request (1 logs all; errors always log)"),
		debugAddr: fs.String("debug-addr", "", "optional second listener serving net/http/pprof under /debug/pprof/ (empty disables)"),
	}
}

// observability builds the serve.Observability the daemon flags select.
func (d *daemonFlags) observability() (serve.Observability, error) {
	var o serve.Observability
	switch *d.metrics {
	case "on":
		o.Metrics = obs.NewRegistry()
	case "off":
	default:
		return o, fmt.Errorf("-metrics must be on or off, got %q", *d.metrics)
	}
	if *d.logSample < 1 {
		return o, fmt.Errorf("-log-sample must be >= 1, got %d", *d.logSample)
	}
	var level slog.Level
	switch *d.logLevel {
	case "off":
		return o, nil
	case "debug":
		level = slog.LevelDebug
	case "info":
		level = slog.LevelInfo
	case "warn":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		return o, fmt.Errorf("-log-level must be debug, info, warn, error or off, got %q", *d.logLevel)
	}
	o.AccessLog = slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	o.LogSample = *d.logSample
	return o, nil
}

// pprofMux builds the /debug/pprof handler of the -debug-addr listener.
// The profiling endpoints never share the serving listener: profiles can
// run for seconds and must not be reachable from the query-facing port.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Connection hygiene for a public listener: a client that trickles or
// never finishes its request headers or body, or parks an idle keep-alive
// connection, must not pin a goroutine and file descriptor forever.
// Response writing is left unbounded — large route batches stream full
// traces and are cut off by the client, not the server.
const (
	daemonReadHeaderTimeout = 10 * time.Second
	daemonIdleTimeout       = 2 * time.Minute
)

// daemonReadTimeout bounds reading one whole request, headers and body;
// a variable so tests can shorten it.
var daemonReadTimeout = 30 * time.Second

// newDaemonServer wraps handler in an http.Server with the daemon's
// connection timeouts; every listener runDaemon binds is served by one.
func newDaemonServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: daemonReadHeaderTimeout,
		ReadTimeout:       daemonReadTimeout,
		IdleTimeout:       daemonIdleTimeout,
	}
}

// runDaemon binds addr, announces the live address (port 0 resolves, so
// smoke scripts can scrape "listening on"), serves handler until
// SIGINT/SIGTERM, then drains in-flight requests and returns. A
// non-empty debugAddr binds a second listener serving net/http/pprof,
// kept off the query-facing port.
func runDaemon(addr, debugAddr string, handler http.Handler) error {
	// Bind before announcing so "listening on" always names a live
	// address.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening on %s\n", ln.Addr())
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			ln.Close()
			return err
		}
		fmt.Printf("debug listening on %s\n", dln.Addr())
		ds := newDaemonServer(pprofMux())
		defer ds.Close()
		go ds.Serve(dln)
	}

	hs := newDaemonServer(handler)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	select {
	case err := <-done:
		// Serve never returns nil; without Shutdown any return is fatal.
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("shutting down: draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), daemonShutdownGrace)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
