package space

import "peats/internal/tuple"

// Test-only exports, so sibling external test packages (space_test)
// can reuse the parity machinery against engines that live outside
// this package — the durable engine's parity suite drives real spaces
// through DriveSpacePair without duplicating the generator.
var (
	DriveSpacePair     = driveSpacePair
	DriveSharedTagPair = driveSharedTagPair
)

// SubIndexMin exports the first-field list length above which the
// indexed engine builds its second index level.
const SubIndexMin = subIndexMin

// CandidateLen returns the length of the index list the indexed engine
// walks for tmpl — dead records included — so tests can pin lookup
// cost deterministically instead of by timing.
func CandidateLen(s *IndexedStore, tmpl tuple.Tuple) int {
	list, _, _, _ := s.candidates(tmpl)
	return len(list)
}
