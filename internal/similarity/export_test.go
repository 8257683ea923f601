package similarity

// The story score's unexported terms, for the floor oracle in the
// external test package.
var (
	EvolutionSimilarity = evolutionSimilarity
	ExtentGap           = extentGap
)
