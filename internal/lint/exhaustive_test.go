package lint_test

import (
	"testing"

	"taopt/internal/lint"
	"taopt/internal/lint/linttest"
)

func TestExhaustiveFlagsMissingMembers(t *testing.T) {
	// Includes the acceptance case: a dispatcher over bin.Kind that
	// deliberately omits KindRunEnd.
	linttest.Run(t, lint.Exhaustive(lint.DefaultConfig()), "taopt/internal/core", "testdata/exhaustive/flagged")
}

func TestExhaustiveAcceptsFullCoverage(t *testing.T) {
	linttest.Run(t, lint.Exhaustive(lint.DefaultConfig()), "taopt/internal/core", "testdata/exhaustive/clean")
}
