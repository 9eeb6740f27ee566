// Command ides-landmark runs a landmark agent: it answers echo probes on
// its listen address, periodically measures RTT to its landmark peers with
// echo frames, and reports the measurements to the information server.
//
// Usage:
//
//	ides-landmark -self lm0.example.net:4101 -listen :4101 \
//	    -peers lm1.example.net:4101,lm2.example.net:4101 \
//	    -server ides.example.net:4100 -interval 1m
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"os"
	"time"

	"github.com/ides-go/ides/internal/cli"
	"github.com/ides-go/ides/internal/landmark"
	"github.com/ides-go/ides/internal/transport"
)

func main() {
	self := flag.String("self", "", "this landmark's address as the server knows it (required)")
	listen := flag.String("listen", ":4101", "echo service listen address")
	peers := flag.String("peers", "", "comma-separated peer landmark addresses (required)")
	serverAddr := flag.String("server", "", "information server address (required; with a replicated tier, any endpoint — followers forward reports to the leader)")
	interval := flag.Duration("interval", time.Minute, "measurement round interval")
	samples := flag.Int("samples", 4, "echo probes per peer per round (minimum is reported)")
	once := flag.Bool("once", false, "measure and report a single round, then exit; no echo service is started, so peers must be running persistent landmarks for the probes to succeed (e.g. a cron-driven extra report cadence on top of a persistent fleet)")
	poolFlags := cli.RegisterPoolFlags(flag.CommandLine, 2, 2*time.Minute, "keep below the server's -idle-timeout; reports arrive every -interval, so a pool idle budget above it keeps one warm connection across rounds")
	metricsFlags := cli.RegisterMetricsFlags(flag.CommandLine, "connection-pool counters")
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	if *self == "" || *serverAddr == "" {
		logger.Fatal("ides-landmark: -self and -server are required")
	}
	peerList := cli.List(*peers)
	if len(peerList) == 0 {
		logger.Fatal("ides-landmark: -peers must list at least one peer")
	}

	dialer := &net.Dialer{Timeout: 10 * time.Second}
	pool, err := poolFlags.Build(dialer)
	if err != nil {
		logger.Fatalf("ides-landmark: %v", err)
	}
	defer pool.Close()
	if reg := metricsFlags.Registry(); reg != nil {
		pool.RegisterMetrics(reg)
	}
	stopMetrics, err := metricsFlags.Serve(logger, "ides-landmark")
	if err != nil {
		logger.Fatalf("ides-landmark: %v", err)
	}
	defer stopMetrics() //nolint:errcheck
	agent, err := landmark.New(landmark.Config{
		Self:     *self,
		Peers:    peerList,
		Server:   *serverAddr,
		Dialer:   dialer,
		Pinger:   &transport.TCPPinger{Dialer: dialer},
		Samples:  *samples,
		Interval: *interval,
		Pool:     pool,
		Logger:   logger,
	})
	if err != nil {
		logger.Fatalf("ides-landmark: %v", err)
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	if *once {
		if err := agent.ReportOnce(ctx); err != nil {
			logger.Fatalf("ides-landmark: %v", err)
		}
		logger.Printf("ides-landmark: %s reported one round to %s", *self, *serverAddr)
		return
	}

	ln, err := cli.Listen(*listen)
	if err != nil {
		logger.Fatalf("ides-landmark: %v", err)
	}
	logger.Printf("ides-landmark: %s echoing on %s, reporting to %s every %v",
		*self, ln.Addr(), *serverAddr, *interval)

	errCh := make(chan error, 2)
	go func() { errCh <- agent.ServeEcho(ctx, ln) }()
	go func() { errCh <- agent.Run(ctx) }()
	if err := <-errCh; err != nil && !errors.Is(err, context.Canceled) {
		logger.Fatalf("ides-landmark: %v", err)
	}
	logger.Print("ides-landmark: shut down")
}
