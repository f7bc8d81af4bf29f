package physical

import "worldsetdb/internal/wsa"

func init() {
	// The dedicated physical operators are one of the four evaluation
	// engines; see the engine registry in package wsa.
	wsa.RegisterEngine("physical", EvalWorldSet)
}
