package history

// FreshString renders s as String does when no rendering was cached, so
// tests can hold a canonical System's cached text against a new render.
func FreshString(s *System) string {
	t := *s
	t.text = ""
	return t.String()
}
