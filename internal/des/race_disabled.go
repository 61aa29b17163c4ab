//go:build !race

package des

// raceEnabled reports whether this binary was built with -race; see
// retireCoros for why the kernel cares.
const raceEnabled = false
