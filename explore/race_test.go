//go:build race

package explore

// maxMallocsPerTransition gates TestExploreMallocsPerTransition under
// -race. The searches recycle machines through their own free lists, so
// those counts are exact under -race too; the excess is sim's pool of
// key encoders, from which -race drops a share of the objects put back.
const maxMallocsPerTransition = 8.5
