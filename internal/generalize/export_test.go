package generalize

// Summarize exposes the per-group summary rule to the external test package,
// whose reference RecodeGroups must summarize exactly as the real one does.
var Summarize = summarize
