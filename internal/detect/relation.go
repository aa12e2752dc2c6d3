package detect

import "math"

// Spatial relationships between objects (paper footnote 2): the engine
// treats a relationship predicate as a binary per-frame output derived from
// the object detection outcomes — the relationship holds on a frame when
// some detected instance pair satisfies the geometric condition.
//
// The synthetic world has no pixels, so instance geometry is itself
// synthesised: every tracked instance follows a smooth, deterministic
// horizontal trajectory derived from its identity (a per-instance base
// position plus slow sinusoidal drift). Ground truth and detector both read
// the same trajectory; the detector's errors come from missed or
// hallucinated instances, exactly as for presence predicates.

// Relation names a geometric predicate over two object types.
type Relation string

const (
	// LeftOf holds when an instance of the first type is left of an
	// instance of the second by at least relationMargin.
	LeftOf Relation = "left_of"
	// RightOf is the mirror image.
	RightOf Relation = "right_of"
	// Near holds when instances of the two types are within
	// relationNearDist horizontally.
	Near Relation = "near"
)

// relationMargin is the minimal horizontal separation for LeftOf/RightOf,
// in normalised image coordinates [0, 1].
const relationMargin = 0.05

// relationNearDist is the maximal separation for Near.
const relationNearDist = 0.2

// ValidRelation reports whether the name is a supported relation.
func ValidRelation(r Relation) bool {
	switch r {
	case LeftOf, RightOf, Near:
		return true
	}
	return false
}

// PositionOf returns the horizontal centre (in [0, 1]) of a tracked
// instance on a frame. It is a pure function of (video, track, frame):
// a per-instance anchor plus two slow incommensurate sinusoids.
func PositionOf(videoID string, trackID, frame int) float64 {
	h := keyed(hashString(videoID), uint64(int64(trackID)))
	anchor := unitFloat(h)
	phase1 := 2 * math.Pi * unitFloat(mix64(h^0x1234))
	phase2 := 2 * math.Pi * unitFloat(mix64(h^0x5678))
	t := float64(frame)
	drift := 0.18*math.Sin(t/180+phase1) + 0.09*math.Sin(t/411+phase2)
	x := anchor + drift
	// Reflect into [0, 1].
	x = math.Mod(math.Abs(x), 2)
	if x > 1 {
		x = 2 - x
	}
	return x
}

// holds evaluates the geometric condition for a pair of positions.
func (r Relation) holds(xa, xb float64) bool {
	switch r {
	case LeftOf:
		return xa <= xb-relationMargin
	case RightOf:
		return xa >= xb+relationMargin
	case Near:
		return math.Abs(xa-xb) <= relationNearDist
	}
	return false
}

// RelationPositive reports the detector-derived indicator of the relation
// on a frame: some detected instance of type a and some detected instance
// of type b satisfy it. Hallucinated detections (negative IDs) participate,
// as they would in a real pipeline. The detections are read columnar into
// the caller's scratch batches ea and eb (reset on entry), so a per-frame
// loop allocates nothing once the batches are warm.
func RelationPositive(det ObjectDetector, v TruthVideo, rel Relation, a, b string, frame int, ea, eb *Events) bool {
	ea.Reset()
	AppendFrameEvents(det, v, a, frame, ea)
	if ea.Len() == 0 {
		return false
	}
	eb.Reset()
	AppendFrameEvents(det, v, b, frame, eb)
	if eb.Len() == 0 {
		return false
	}
	for _, ta := range ea.Tracks {
		xa := PositionOf(v.ID(), int(ta), frame)
		for _, tb := range eb.Tracks {
			if ta == tb {
				continue
			}
			if rel.holds(xa, PositionOf(v.ID(), int(tb), frame)) {
				return true
			}
		}
	}
	return false
}

// TrueRelationAt reports the ground-truth indicator of the relation on a
// frame, from the true instances and the same trajectories.
func TrueRelationAt(v TruthVideo, rel Relation, a, b string, frame int) bool {
	ia := v.ObjectInstancesAt(a, frame)
	if len(ia) == 0 {
		return false
	}
	ib := v.ObjectInstancesAt(b, frame)
	if len(ib) == 0 {
		return false
	}
	for _, ta := range ia {
		xa := PositionOf(v.ID(), ta, frame)
		for _, tb := range ib {
			if ta == tb {
				continue
			}
			if rel.holds(xa, PositionOf(v.ID(), tb, frame)) {
				return true
			}
		}
	}
	return false
}
