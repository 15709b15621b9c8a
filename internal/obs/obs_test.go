package obs

import "testing"

func TestRegistryCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter value %d, want 5", c.Value())
	}
	if d := r.Counter("d_total"); d.Value() != 0 {
		t.Fatalf("fresh counter reads %d, want 0", d.Value())
	}
}

func TestRegistryNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Fatal("nil counter must read as zero")
	}
	var b *DistBoard
	b.AddBytes(3)
	b.AddRoundtrip()
	if b.WireBytes() != 0 || b.Roundtrips() != 0 {
		t.Fatal("nil board must read as zero")
	}
	if NewDistBoard(nil, 2) != nil || NewDistBoard(NewRegistry(), 0) != nil {
		t.Fatal("a board without registry or workers must be the nil board")
	}
}

func TestRegistryRecordPathsAllocationFree(t *testing.T) {
	c := NewRegistry().Counter("c_total")
	b := NewDistBoard(NewRegistry(), 2)
	var nilC *Counter
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		nilC.Add(1)
		b.AddBytes(64)
		b.AddRoundtrip()
	}); n != 0 {
		t.Fatalf("record path allocates %.1f per run, want 0", n)
	}
}

func TestRegistryDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_name")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	r.Counter("ok_name")
}

func TestCombine(t *testing.T) {
	if Combine() != nil || Combine(nil, nil) != nil {
		t.Fatal("Combine of no observers must be nil")
	}
	var migrants [2]int
	a := &recordingObserver{onMig: func(m MigrationEvent) { migrants[0] += m.Count }}
	b := &recordingObserver{onMig: func(m MigrationEvent) { migrants[1] += m.Count }}
	if Combine(nil, a, nil) != Observer(a) {
		t.Fatal("Combine of one observer must return it unwrapped")
	}
	Combine(a, b).ObserveMigration(MigrationEvent{Count: 4})
	if migrants != [2]int{4, 4} {
		t.Fatalf("Combine fanned out %v, want [4 4]", migrants)
	}
}

func TestLabeledOverridesGenerationLabel(t *testing.T) {
	var got []string
	rec := &recordingObserver{onGen: func(g GenerationStats) { got = append(got, g.Label) }}
	l := Labeled{Label: "ds1", Next: rec}
	l.ObserveGeneration(GenerationStats{Label: "inner", Generation: 1})
	if len(got) != 1 || got[0] != "ds1" {
		t.Fatalf("labels %v, want [ds1]", got)
	}
}

// recordingObserver is a test helper capturing events via callbacks.
type recordingObserver struct {
	onGen func(GenerationStats)
	onMig func(MigrationEvent)
	onRun func(RunEvent)
}

func (r *recordingObserver) ObserveGeneration(g GenerationStats) {
	if r.onGen != nil {
		r.onGen(g)
	}
}

func (r *recordingObserver) ObserveMigration(m MigrationEvent) {
	if r.onMig != nil {
		r.onMig(m)
	}
}

func (r *recordingObserver) ObserveRun(e RunEvent) {
	if r.onRun != nil {
		r.onRun(e)
	}
}
