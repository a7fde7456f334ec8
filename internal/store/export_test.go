package store

// TenantUsage returns the live bytes attributed to tenant.
func (s *Store) TenantUsage(tenant string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[tenant]
}
