package obs

// DistBoard counts the wire traffic of a distributed island run
// (internal/dist): total bytes moved over the worker sockets in both
// directions, and total coordinator round trips (forwarded migration
// frames and request/reply control exchanges). Every update is atomic,
// and a nil *DistBoard is a no-op.
type DistBoard struct {
	bytes      *Counter
	roundtrips *Counter
}

// NewDistBoard registers the wire counters dist_bytes_total and
// dist_roundtrips_total on r. The worker count only gates the board:
// it returns nil (the no-op board) when r is nil or workers < 1.
func NewDistBoard(r *Registry, workers int) *DistBoard {
	if r == nil || workers < 1 {
		return nil
	}
	return &DistBoard{
		bytes:      r.Counter("dist_bytes_total"),
		roundtrips: r.Counter("dist_roundtrips_total"),
	}
}

// AddBytes counts n wire bytes (sent or received).
//
//detlint:hotpath
func (b *DistBoard) AddBytes(n int) {
	if b == nil || n <= 0 {
		return
	}
	b.bytes.Add(uint64(n))
}

// AddRoundtrip counts one coordinator round trip.
//
//detlint:hotpath
func (b *DistBoard) AddRoundtrip() {
	if b == nil {
		return
	}
	b.roundtrips.Inc()
}

// WireBytes returns the total counted wire bytes.
func (b *DistBoard) WireBytes() uint64 {
	if b == nil {
		return 0
	}
	return b.bytes.Value()
}

// Roundtrips returns the total counted round trips.
func (b *DistBoard) Roundtrips() uint64 {
	if b == nil {
		return 0
	}
	return b.roundtrips.Value()
}
