// cicada-server serves the embedded Cicada engine over TCP to multiple
// tenants (docs/SERVER.md). The wire protocol is documented in
// docs/PROTOCOL.md; internal/client is the Go client.
//
// Usage:
//
//	cicada-server -addr 127.0.0.1:7425 -tenants "acme:accounts,audit;globex:accounts"
//
// The bound address is printed on stdout once listening (useful with
// -addr 127.0.0.1:0 in scripts). SIGINT/SIGTERM triggers a graceful
// drain: the listener closes, in-flight transactions finish and flush,
// then sessions and workers stop.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"cicada"
	"cicada/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7425", "listen address for the client protocol")
		adminAddr = flag.String("admin-addr", "", "serve /metrics, /debug/vars and /debug/txntrace on this address (off when empty)")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "engine worker threads (all owned by the server)")
		tenants   = flag.String("tenants", "default:kv", `tenant provisioning: "name:table1,table2;name2:table"`)

		maxFrame    = flag.Int("max-frame", 0, "frame size bound in bytes (default 1 MiB)")
		queueDepth  = flag.Int("queue-depth", 0, "sessions that may wait for a worker before txns are rejected as overload (default 256)")
		txnAttempts = flag.Int("txn-attempts", 0, "per-txn conflict retry budget (default 8)")
		maxSessions = flag.Int("max-sessions", 0, "per-tenant session quota (default 64)")
		maxInflight = flag.Int("max-inflight", 0, "per-tenant in-flight txn quota (default 128)")
		tableCap    = flag.Int("table-capacity", 0, "per-table hash index capacity (default 65536)")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
		traceFlag   = flag.Bool("trace", false, "enable the transaction tracer (docs/OBSERVABILITY.md)")
		walDir      = flag.String("wal-dir", "", "enable durability: recover from and log to this directory")
		groupCommit = flag.Duration("group-commit", 0, "WAL fsync interval (default 1 ms)")
	)
	flag.Parse()

	tenantCfgs, err := parseTenants(*tenants, *maxSessions, *maxInflight, *tableCap)
	if err != nil {
		fatal(err)
	}

	cfg := cicada.DefaultConfig(*workers)
	cfg.Telemetry = true
	cfg.Trace = *traceFlag
	db := cicada.Open(cfg)

	srv, err := server.New(server.Config{
		DB:          db,
		Tenants:     tenantCfgs,
		MaxFrame:    *maxFrame,
		QueueDepth:  *queueDepth,
		TxnAttempts: *txnAttempts,
	})
	if err != nil {
		fatal(err)
	}

	var wal *cicada.WAL
	if *walDir != "" {
		// Recover whatever a previous run left behind (the schema above is
		// rebuilt identically from the same -tenants spec), then attach the
		// log so new commits are durable.
		if logs, _ := filepath.Glob(filepath.Join(*walDir, "*")); len(logs) > 0 {
			stats, err := db.Recover(*walDir)
			if err != nil {
				fatal(fmt.Errorf("recover %s: %w", *walDir, err))
			}
			fmt.Printf("cicada-server: recovered %d redo records, %d versions installed\n",
				stats.RedoRecords, stats.Installed)
		}
		wal, err = db.AttachWAL(cicada.WALConfig{Dir: *walDir, GroupCommit: *groupCommit})
		if err != nil {
			fatal(err)
		}
	}

	if *adminAddr != "" {
		go func() {
			if err := http.ListenAndServe(*adminAddr, db.MetricsHandler()); err != nil {
				fmt.Fprintf(os.Stderr, "cicada-server: admin listener: %v\n", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cicada-server: listening on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Printf("cicada-server: %v, draining (budget %s)\n", s, *drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		err := srv.Drain(ctx)
		cancel()
		if wal != nil {
			if werr := wal.Close(); werr != nil && err == nil {
				err = werr
			}
		}
		if err != nil {
			fatal(fmt.Errorf("drain: %w", err))
		}
		st := db.Stats()
		fmt.Printf("cicada-server: drained cleanly (%d txns committed)\n", st.Commits)
	case err := <-serveErr:
		if wal != nil {
			wal.Close()
		}
		if err != nil {
			fatal(err)
		}
	}
}

// parseTenants turns "acme:accounts,audit;globex:accounts" into tenant
// configs sharing the given quota overrides.
func parseTenants(spec string, maxSessions, maxInflight, tableCap int) ([]server.TenantConfig, error) {
	var out []server.TenantConfig
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, tables, ok := strings.Cut(part, ":")
		if !ok || name == "" || tables == "" {
			return nil, fmt.Errorf("bad tenant spec %q (want name:table1,table2)", part)
		}
		tc := server.TenantConfig{
			Name:          strings.TrimSpace(name),
			MaxSessions:   maxSessions,
			MaxInflight:   maxInflight,
			TableCapacity: tableCap,
		}
		for _, tbl := range strings.Split(tables, ",") {
			tbl = strings.TrimSpace(tbl)
			if tbl == "" {
				return nil, fmt.Errorf("bad tenant spec %q: empty table name", part)
			}
			tc.Tables = append(tc.Tables, tbl)
		}
		out = append(out, tc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tenants in spec %q", spec)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cicada-server: %v\n", err)
	os.Exit(1)
}
