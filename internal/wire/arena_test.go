package wire

import "testing"

// TestArenaRecycleZeroAlloc: once warm, a Get/Put cycle allocates
// nothing — neither the buffer nor the holder Put boxes it in.
func TestArenaRecycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting changes under -race")
	}
	var a Arena
	a.Put(a.Get(1024))
	allocs := testing.AllocsPerRun(1000, func() {
		b := a.Get(1024)
		a.Put(append(b, 1))
	})
	if allocs != 0 {
		t.Fatalf("warm Get/Put allocates %.1f times per cycle, want 0", allocs)
	}
	if st := a.Stats(); st.Hits == 0 {
		t.Fatalf("no recycled buffer served: %+v", st)
	}
}
