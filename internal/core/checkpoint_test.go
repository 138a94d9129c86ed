package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/deme"
	"repro/internal/vrptw"
)

// runWithCheckpoints runs the algorithm on a fresh simulator with a sink
// that round-trips every checkpoint through Encode/Decode — so the golden
// comparison also covers serialization.
func runWithCheckpoints(t *testing.T, alg Algorithm, in *vrptw.Instance, cfg Config) (*Result, []*Checkpoint) {
	t.Helper()
	var cks []*Checkpoint
	cfg.CheckpointSink = func(ck *Checkpoint) error {
		data, err := EncodeCheckpoint(ck)
		if err != nil {
			return err
		}
		dec, err := DecodeCheckpoint(data)
		if err != nil {
			return err
		}
		cks = append(cks, dec)
		return nil
	}
	res, err := Run(alg, in, cfg, deme.NewSim(deme.Origin3800()))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return res, cks
}

// sameResult asserts bit-identity of everything a caller can observe:
// objectives and routes of the merged front (in order), evaluation and
// iteration counters, virtual elapsed time, and the convergence samples.
func sameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if got.Evaluations != want.Evaluations {
		t.Errorf("evaluations: got %d, want %d", got.Evaluations, want.Evaluations)
	}
	if got.Iterations != want.Iterations {
		t.Errorf("iterations: got %d, want %d", got.Iterations, want.Iterations)
	}
	if got.Elapsed != want.Elapsed {
		t.Errorf("elapsed: got %v, want %v", got.Elapsed, want.Elapsed)
	}
	if len(got.Front) != len(want.Front) {
		t.Fatalf("front size: got %d, want %d", len(got.Front), len(want.Front))
	}
	for i := range want.Front {
		if got.Front[i].Obj != want.Front[i].Obj {
			t.Errorf("front[%d] objectives: got %+v, want %+v", i, got.Front[i].Obj, want.Front[i].Obj)
		}
		w, g := want.Front[i].Routes, got.Front[i].Routes
		if len(w) != len(g) {
			t.Errorf("front[%d]: got %d routes, want %d", i, len(g), len(w))
			continue
		}
		for r := range w {
			if len(w[r]) != len(g[r]) {
				t.Errorf("front[%d] route %d: got %v, want %v", i, r, g[r], w[r])
				continue
			}
			for k := range w[r] {
				if w[r][k] != g[r][k] {
					t.Errorf("front[%d] route %d: got %v, want %v", i, r, g[r], w[r])
					break
				}
			}
		}
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("samples: got %d, want %d", len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Errorf("sample[%d]: got %+v, want %+v", i, got.Samples[i], want.Samples[i])
		}
	}
}

// TestResumeLegacyEvalWorkersCheckpoint pins compatibility with durable
// state written before the sharded evaluator was removed: the testdata
// checkpoint was encoded by that code (synchronous, P=4, granular k=10,
// "eval_workers": 4 in its payload, barrier 4 of the run below). The
// field was never part of the config digest, so the checkpoint must still
// decode and resume bit-identically to today's uninterrupted run.
func TestResumeLegacyEvalWorkersCheckpoint(t *testing.T) {
	data, err := os.ReadFile("testdata/ckpt_eval_workers.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"eval_workers":4`)) {
		t.Fatal("fixture lost its eval_workers field")
	}
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("decoding legacy checkpoint: %v", err)
	}
	in := testInstance(t, 25)
	cfg := smallConfig()
	cfg.MaxEvaluations = 2000
	cfg.NeighborhoodSize = 40
	cfg.Seed = 7
	cfg.SampleEvery = 500
	cfg.CheckpointEvery = 8
	cfg.GranularK = 10
	cfg.Processors = 4
	ref, cks := runWithCheckpoints(t, Synchronous, in, cfg)
	// Apart from the dropped field, the legacy payload is exactly the
	// checkpoint today's code takes at the same barrier.
	if len(cks) < ck.Barrier {
		t.Fatalf("reference run took %d checkpoints, fixture is at barrier %d", len(cks), ck.Barrier)
	}
	now, err := EncodeCheckpoint(cks[ck.Barrier-1])
	if err != nil {
		t.Fatal(err)
	}
	var legacyEnv, nowEnv checkpointEnvelope
	if err := json.Unmarshal(data, &legacyEnv); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(now, &nowEnv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.Replace(legacyEnv.Payload, []byte(`"eval_workers":4,`), nil, 1), nowEnv.Payload) {
		t.Error("legacy payload differs from today's checkpoint at the same barrier beyond eval_workers")
	}
	res, err := ResumeContext(t.Context(), ck, in, cfg, deme.NewSim(deme.Origin3800()))
	if err != nil {
		t.Fatalf("resuming legacy checkpoint: %v", err)
	}
	sameResult(t, ref, res)
}

// TestResumeBitIdentical is the checkpointing golden test: for every
// supported variant and several seeds, a run resumed from any of its
// checkpoints must reproduce the uninterrupted run exactly — front
// objectives and routes, counters, virtual time, convergence samples.
func TestResumeBitIdentical(t *testing.T) {
	in := testInstance(t, 25)
	for _, alg := range []Algorithm{Sequential, Synchronous, Asynchronous, Collaborative} {
		for _, seed := range []uint64{1, 7, 42} {
			t.Run(fmt.Sprintf("%v/seed%d", alg, seed), func(t *testing.T) {
				cfg := smallConfig()
				cfg.MaxEvaluations = 2000
				cfg.NeighborhoodSize = 40
				cfg.Seed = seed
				cfg.SampleEvery = 500
				cfg.CheckpointEvery = 8
				if alg != Sequential {
					cfg.Processors = 4
				}
				ref, cks := runWithCheckpoints(t, alg, in, cfg)
				if len(cks) == 0 {
					t.Fatal("reference run produced no checkpoints")
				}
				// Resume from the first, a middle and the last checkpoint.
				picks := map[int]bool{0: true, len(cks) / 2: true, len(cks) - 1: true}
				for idx := range picks {
					ck := cks[idx]
					res, err := ResumeContext(t.Context(), ck, in, cfg, deme.NewSim(deme.Origin3800()))
					if err != nil {
						t.Fatalf("resume from barrier %d: %v", ck.Barrier, err)
					}
					t.Logf("barrier %d: evals %d -> %d", ck.Barrier, sumPartEvals(ck), res.Evaluations)
					sameResult(t, ref, res)
				}
			})
		}
	}
}

func sumPartEvals(ck *Checkpoint) int {
	n := 0
	for _, p := range ck.Parts {
		n += p.Evals
	}
	return n
}

// TestResumeRejectsMismatch checks the digest and shape guards: a resumed
// run must refuse a different instance, a different config, or a corrupted
// encoding.
func TestResumeRejectsMismatch(t *testing.T) {
	in := testInstance(t, 20)
	cfg := smallConfig()
	cfg.MaxEvaluations = 800
	cfg.NeighborhoodSize = 30
	cfg.CheckpointEvery = 5
	_, cks := runWithCheckpoints(t, Sequential, in, cfg)
	if len(cks) == 0 {
		t.Fatal("no checkpoints")
	}
	ck := cks[0]

	other, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.C1, N: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeContext(t.Context(), ck, other, cfg, deme.NewSim(deme.Ideal())); err == nil {
		t.Error("resume accepted a different instance")
	}
	bad := cfg
	bad.TabuTenure++
	if _, err := ResumeContext(t.Context(), ck, in, bad, deme.NewSim(deme.Ideal())); err == nil {
		t.Error("resume accepted a different config")
	}

	data, err := EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40 // flip a payload bit
	if _, err := DecodeCheckpoint(data); err == nil {
		t.Error("decode accepted a corrupted checkpoint")
	}
}

// TestCheckpointConfigGuards checks that incompatible run modes are
// rejected up front rather than producing unresumable checkpoints.
func TestCheckpointConfigGuards(t *testing.T) {
	in := testInstance(t, 20)
	cfg := smallConfig()
	cfg.CheckpointEvery = 5

	bad := cfg
	bad.RecordTrajectory = true
	if _, err := Run(Sequential, in, bad, deme.NewSim(deme.Ideal())); err == nil {
		t.Error("checkpointing accepted RecordTrajectory")
	}
	bad = cfg
	bad.MaxSeconds = 100
	if _, err := Run(Sequential, in, bad, deme.NewSim(deme.Ideal())); err == nil {
		t.Error("checkpointing accepted MaxSeconds")
	}
	bad = cfg
	bad.Processors = 4
	bad.Islands = 2
	if _, err := Run(Combined, in, bad, deme.NewSim(deme.Ideal())); err == nil {
		t.Error("checkpointing accepted the combined variant")
	}
}
