package harness

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"
	"time"
)

// TestGossipPaperAccuracyAtScale is the decentralized counterpart of
// TestPaperAccuracyAtScale: a 10,000-peer landmark-free fleet on a
// generated topology, every host running the DMFSGD gossip loop with a
// bounded random neighbor set and nothing but a rendezvous directory
// for bootstrap, must converge to peer-to-peer estimates inside the
// Fig-2 bounds (median ≤ 0.30, p90 ≤ 1.0). Under -race the fleet is
// scaled to 1,000 peers and in -short mode to 256; the bounds are the
// same.
func TestGossipPaperAccuracyAtScale(t *testing.T) {
	numPeers, rounds := 10000, 120
	switch {
	case raceEnabled:
		numPeers, rounds = 1000, 100
	case testing.Short():
		numPeers, rounds = 256, 120
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	g, err := NewGossip(GossipConfig{NumPeers: numPeers, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	for r := 0; r < rounds; r++ {
		if _, err := g.GossipRound(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// Score a 2,000-pair sample (all pairs on the small fleets): each of
	// 100 sources estimates to the 20 peers that follow it in index
	// order, straight from exchanged coordinates.
	acc, err := g.MeasureAccuracy(ctx, 100, 20)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("n=%d rounds=%d: median=%.4f p90=%.4f answered=%d/%d",
		numPeers, rounds, acc.Median, acc.P90, acc.Answered, acc.Queried)
	if acc.Answered == 0 {
		t.Fatal("no peer-to-peer estimates answered")
	}
	if acc.Answered < acc.Queried*9/10 {
		t.Fatalf("only %d/%d estimates answered", acc.Answered, acc.Queried)
	}
	if acc.Median > 0.30 || acc.P90 > 1.0 {
		t.Fatalf("gossip accuracy median=%.4f p90=%.4f exceeds gates (median 0.30, p90 1.0)",
			acc.Median, acc.P90)
	}
}

// TestGossipDeterministicSameSeed: two same-seed fleets driven the same
// number of rounds end with bit-identical coordinates on every peer —
// the property that makes at-scale gossip failures reproducible.
func TestGossipDeterministicSameSeed(t *testing.T) {
	run := func() ([][]float64, int) {
		g, err := NewGossip(GossipConfig{NumPeers: 32, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		failed := 0
		for r := 0; r < 25; r++ {
			f, err := g.GossipRound(ctx)
			if err != nil {
				t.Fatal(err)
			}
			failed += f
		}
		return g.Coordinates(), failed
	}
	coordsA, failedA := run()
	coordsB, failedB := run()
	if failedA != failedB {
		t.Fatalf("same seed, different failure counts: %d vs %d", failedA, failedB)
	}
	if !reflect.DeepEqual(coordsA, coordsB) {
		for i := range coordsA {
			if !reflect.DeepEqual(coordsA[i], coordsB[i]) {
				t.Fatalf("same seed, different coordinates at peer %d:\n  run 1: %v\n  run 2: %v",
					i, coordsA[i], coordsB[i])
			}
		}
		t.Fatal("same seed, different coordinates")
	}
}

// TestGossipPartitionHeal: cut a minority of peers off from the rest of
// the fleet (rendezvous included), watch gossip rounds fail and the
// survivors churn the unreachable peers out of their neighbor tables,
// then heal and require the fleet to re-converge inside the gates —
// the cut peers re-bootstrapping through the rendezvous on their own.
func TestGossipPartitionHeal(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	g, err := NewGossip(GossipConfig{NumPeers: 48, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	for r := 0; r < 100; r++ {
		if _, err := g.GossipRound(ctx); err != nil {
			t.Fatal(err)
		}
	}
	base, err := g.MeasureAccuracy(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.Median > 0.30 || base.P90 > 1.0 {
		t.Fatalf("baseline accuracy median=%.4f p90=%.4f out of gates", base.Median, base.P90)
	}

	// Partition the first 12 peers away from everyone else.
	cut := g.PeerNames()[:12]
	if err := g.Net.Partition(cut...); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for r := 0; r < 8; r++ {
		f, err := g.GossipRound(ctx)
		if err != nil {
			t.Fatal(err)
		}
		failed += f
	}
	if failed == 0 {
		t.Fatal("no gossip failures while 12 peers were partitioned")
	}
	var churn uint64
	for i := 0; i < g.NumPeers(); i++ {
		churn += g.Peer(i).Stats().Churn
	}
	if churn == 0 {
		t.Fatal("no neighbor churn while 12 peers were partitioned")
	}

	g.Net.Heal()
	for r := 0; r < 80; r++ {
		if _, err := g.GossipRound(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// The cut peers must have found their way back to live neighbors.
	for _, name := range cut {
		for i := 0; i < g.NumPeers(); i++ {
			if g.Peer(i).Self() == name {
				if n := g.Peer(i).Stats().Neighbors; n == 0 {
					t.Fatalf("%s still has no neighbors after heal", name)
				}
			}
		}
	}
	after, err := g.MeasureAccuracy(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline median=%.4f p90=%.4f; post-heal median=%.4f p90=%.4f (failed rounds during cut: %d, churn: %d)",
		base.Median, base.P90, after.Median, after.P90, failed, churn)
	if after.Answered < after.Queried {
		t.Fatalf("post-heal estimates incomplete: %d/%d answered", after.Answered, after.Queried)
	}
	if after.Median > 0.30 || after.P90 > 1.0 {
		t.Fatalf("post-heal accuracy median=%.4f p90=%.4f exceeds gates", after.Median, after.P90)
	}
}

// goldenGossipDigest is the coordinate digest of a 64-peer, seed-1
// fleet after 20 rounds. Same-seed tests compare two runs of the same
// code; this value pins the arithmetic and the RNG draw order across
// changes to the code itself, so an optimisation that reorders either
// fails here. It must only change on purpose, with the reason recorded
// in CHANGES.md.
const goldenGossipDigest = "9a7f7e1657d929b0"

// TestGossipGoldenDigest checks the fleet against goldenGossipDigest.
func TestGossipGoldenDigest(t *testing.T) {
	g, err := NewGossip(GossipConfig{NumPeers: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for r := 0; r < 20; r++ {
		if _, err := g.GossipRound(ctx); err != nil {
			t.Fatal(err)
		}
	}
	h := sha256.New()
	var b [8]byte
	for _, row := range g.Coordinates() {
		for _, v := range row {
			binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != goldenGossipDigest {
		t.Fatalf("coordinate digest %s, want %s: the gossip arithmetic or RNG order changed", got, goldenGossipDigest)
	}
}
