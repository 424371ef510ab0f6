package sim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"mdegst/internal/graph"
)

// memSink collects periodic commits in memory, in commit order.
type memSink struct {
	commits map[int64][]byte
	order   []int64
}

func (s *memSink) Commit(round int64, write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	if s.commits == nil {
		s.commits = map[int64][]byte{}
	}
	s.commits[round] = buf.Bytes()
	s.order = append(s.order, round)
	return nil
}

// TestPeriodicCheckpointCadence pins the Every-K mode: the run completes
// normally with an untouched result, commits land at exactly the cadence
// barriers, and each committed file is byte-identical to a freeze-at-that-
// round checkpoint of the same run.
func TestPeriodicCheckpointCadence(t *testing.T) {
	c := graph.Gnm(24, 72, 5).Compile()
	factory := tokenFactory(30)

	plainProtos, plainRep, err := RunCompiled(&EventEngine{Delay: UnitDelay, FIFO: true}, c, factory)
	if err != nil {
		t.Fatal(err)
	}
	finalRound := int64(plainRep.VirtualTime)
	const every = int64(2)
	if finalRound < 2*every {
		t.Fatalf("workload too short for the cadence: %v rounds", finalRound)
	}

	freeze := func(round int64) []byte {
		var buf bytes.Buffer
		eng := &EventEngine{Delay: UnitDelay, FIFO: true, Checkpoint: &CheckpointSpec{Round: round, W: &buf}}
		if _, _, err := RunCompiled(eng, c, factory); !errors.Is(err, ErrCheckpointed) {
			t.Fatalf("freeze r=%d: err = %v, want ErrCheckpointed", round, err)
		}
		return buf.Bytes()
	}

	engines := []struct {
		name string
		mk   func(spec *CheckpointSpec) Engine
	}{
		{"event", func(spec *CheckpointSpec) Engine {
			return &EventEngine{Delay: UnitDelay, FIFO: true, Checkpoint: spec}
		}},
	}
	for _, eng := range engines {
		sink := &memSink{}
		protos, rep, err := RunCompiled(eng.mk(&CheckpointSpec{Every: every, Sink: sink}), c, factory)
		if err != nil {
			t.Fatalf("%s: periodic run failed: %v", eng.name, err)
		}
		assertReportsEqual(t, eng.name+" periodic", rep, plainRep)
		for id, p := range protos {
			if p.(*tokenNode).seen != plainProtos[id].(*tokenNode).seen {
				t.Fatalf("%s: node %d state diverged after periodic run", eng.name, id)
			}
		}
		var want []int64
		for r := every; r <= finalRound; r += every {
			want = append(want, r)
		}
		if fmt.Sprint(sink.order) != fmt.Sprint(want) {
			t.Fatalf("%s: committed rounds %v, want %v", eng.name, sink.order, want)
		}
		for _, r := range sink.order {
			if !bytes.Equal(sink.commits[r], freeze(r)) {
				t.Fatalf("%s: periodic commit at round %d differs from the freeze-mode file", eng.name, r)
			}
		}
	}
}

// TestPeriodicResumeEquivalence resumes from a mid-run periodic commit and
// requires the continuation to finish with the full run's result and to
// re-commit the remaining cadence barriers byte-identically — the property
// the supervisor's recovery leans on.
func TestPeriodicResumeEquivalence(t *testing.T) {
	c := graph.Gnm(24, 72, 5).Compile()
	factory := tokenFactory(30)
	const every = int64(2)

	full := &memSink{}
	fullProtos, fullRep, err := (&EventEngine{Delay: UnitDelay, FIFO: true, Checkpoint: &CheckpointSpec{Every: every, Sink: full}}).Run(c, factory)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.order) < 2 {
		t.Fatalf("workload too short: commits at %v", full.order)
	}

	for _, from := range full.order[:len(full.order)-1] {
		ck, err := ReadCheckpoint(bytes.NewReader(full.commits[from]))
		if err != nil {
			t.Fatalf("read commit r=%d: %v", from, err)
		}
		rest := &memSink{}
		eng := &EventEngine{Delay: UnitDelay, FIFO: true, Checkpoint: &CheckpointSpec{Every: every, Sink: rest}}
		protos, rep, err := eng.Resume(c, factory, ck)
		if err != nil {
			t.Fatalf("resume from r=%d: %v", from, err)
		}
		assertReportsEqual(t, fmt.Sprintf("resume from r=%d", from), rep, fullRep)
		for i, p := range protos {
			if p.(*tokenNode).seen != fullProtos[i].(*tokenNode).seen {
				t.Fatalf("resume from r=%d: node %d state diverged", from, c.Index().ID(int32(i)))
			}
		}
		for _, r := range rest.order {
			if r <= from {
				t.Fatalf("resume from r=%d: re-committed barrier %d", from, r)
			}
			if !bytes.Equal(rest.commits[r], full.commits[r]) {
				t.Fatalf("resume from r=%d: commit at %d differs from the uninterrupted run's", from, r)
			}
		}
		if want := len(full.order) - int(from/every); len(rest.order) != want {
			t.Fatalf("resume from r=%d: %d commits, want %d", from, len(rest.order), want)
		}
	}
}

// TestCheckpointDir pins the durable sink: atomic visible-or-absent
// commits, Latest on the newest round, retention of the newest Keep files,
// and stray .tmp leftovers never mistaken for recovery points.
func TestCheckpointDir(t *testing.T) {
	dir := t.TempDir()
	d := &CheckpointDir{Dir: dir, Keep: 2}

	if _, _, ok, err := d.Latest(); err != nil || ok {
		t.Fatalf("Latest on empty dir: ok=%v err=%v", ok, err)
	}

	payload := func(r int64) []byte { return []byte(fmt.Sprintf("checkpoint-%d", r)) }
	for _, r := range []int64{2, 4, 6} {
		if err := d.Commit(r, func(w io.Writer) error { _, err := w.Write(payload(r)); return err }); err != nil {
			t.Fatalf("commit r=%d: %v", r, err)
		}
	}
	// Keep=2 retains only the newest two.
	rounds, err := d.Rounds()
	if err != nil || fmt.Sprint(rounds) != "[4 6]" {
		t.Fatalf("Rounds = %v, %v; want [4 6]", rounds, err)
	}
	path, round, ok, err := d.Latest()
	if err != nil || !ok || round != 6 {
		t.Fatalf("Latest = %q, %d, %v, %v", path, round, ok, err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, payload(6)) {
		t.Fatalf("latest file content %q, %v", got, err)
	}

	// A failed commit leaves no file, temporary or final.
	boom := errors.New("boom")
	if err := d.Commit(8, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("failing commit: err = %v", err)
	}
	// A stray .tmp (simulating a crash mid-commit) is not a recovery point.
	if err := os.WriteFile(filepath.Join(dir, CheckpointFileName(10)+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if rounds, err = d.Rounds(); err != nil || fmt.Sprint(rounds) != "[4 6]" {
		t.Fatalf("Rounds after failure+tmp = %v, %v (dir: %v)", rounds, err, names)
	}
	if _, round, ok, err = d.Latest(); err != nil || !ok || round != 6 {
		t.Fatalf("Latest after failure+tmp = %d, %v, %v", round, ok, err)
	}
}
