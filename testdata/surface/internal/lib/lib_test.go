package lib

import "testing"

func TestTestOnly(t *testing.T) { TestOnly() }

func TestStats(t *testing.T) { _ = Stats{TestWritten: 1} }
