//! Principals, roles, ACL checks and a count of denied accesses.

use crate::error::MiddlewareError;
use std::collections::BTreeMap;

/// The security manager: principal database, a login stack (so remote
/// calls can run as a different principal and restore the caller), and
/// role checks.
#[derive(Debug, Clone, Default)]
pub struct SecurityManager {
    principals: BTreeMap<String, Vec<String>>,
    login_stack: Vec<String>,
    denials: usize,
}

impl SecurityManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a principal with roles (replaces previous roles).
    pub fn add_principal(&mut self, name: &str, roles: &[&str]) {
        self.principals.insert(name.to_owned(), roles.iter().map(|r| (*r).to_owned()).collect());
    }

    /// Pushes `principal` as the current identity.
    ///
    /// # Errors
    /// Fails when the principal is unknown.
    pub fn login(&mut self, principal: &str) -> Result<(), MiddlewareError> {
        if !self.principals.contains_key(principal) {
            return Err(MiddlewareError::UnknownPrincipal(principal.to_owned()));
        }
        self.login_stack.push(principal.to_owned());
        Ok(())
    }

    /// Pops the current identity; returns it if one was logged in.
    pub fn logout(&mut self) -> Option<String> {
        self.login_stack.pop()
    }

    /// The current principal, if any.
    fn current_principal(&self) -> Option<&str> {
        self.login_stack.last().map(String::as_str)
    }

    /// True when `principal` holds `role`.
    fn has_role(&self, principal: &str, role: &str) -> bool {
        self.principals.get(principal).map(|roles| roles.iter().any(|r| r == role)).unwrap_or(false)
    }

    /// Checks that the current principal holds `role`; counts a denial
    /// when it does not.
    ///
    /// # Errors
    /// [`MiddlewareError::NotAuthenticated`] with no login;
    /// [`MiddlewareError::AccessDenied`] when the role is missing.
    pub fn check(&mut self, role: &str, resource: &str) -> Result<(), MiddlewareError> {
        let Some(principal) = self.current_principal() else {
            self.denials += 1;
            return Err(MiddlewareError::NotAuthenticated);
        };
        if self.has_role(principal, role) {
            return Ok(());
        }
        let principal = principal.to_owned();
        self.denials += 1;
        Err(MiddlewareError::AccessDenied {
            principal,
            role: role.to_owned(),
            resource: resource.to_owned(),
        })
    }

    /// Number of denied accesses recorded.
    pub fn denials(&self) -> usize {
        self.denials
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> SecurityManager {
        let mut s = SecurityManager::new();
        s.add_principal("alice", &["teller", "auditor"]);
        s.add_principal("bob", &["customer"]);
        s
    }

    #[test]
    fn grant_and_deny() {
        let mut s = mgr();
        s.login("alice").unwrap();
        assert!(s.check("teller", "Bank.transfer").is_ok());
        s.logout();
        s.login("bob").unwrap();
        let err = s.check("teller", "Bank.transfer").unwrap_err();
        assert!(matches!(err, MiddlewareError::AccessDenied { .. }));
        assert_eq!(s.denials(), 1);
    }

    #[test]
    fn unauthenticated_check_fails_and_audits() {
        let mut s = mgr();
        assert!(matches!(s.check("teller", "x"), Err(MiddlewareError::NotAuthenticated)));
        assert_eq!(s.denials(), 1);
    }

    #[test]
    fn login_stack_restores_identity() {
        let mut s = mgr();
        s.login("bob").unwrap();
        s.login("alice").unwrap();
        assert_eq!(s.current_principal(), Some("alice"));
        assert_eq!(s.logout(), Some("alice".to_owned()));
        assert_eq!(s.current_principal(), Some("bob"));
    }

    #[test]
    fn unknown_principal_rejected() {
        let mut s = mgr();
        assert!(matches!(s.login("mallory"), Err(MiddlewareError::UnknownPrincipal(_))));
        assert!(!s.has_role("mallory", "teller"));
    }

    #[test]
    fn roles_replaced_on_redeclare() {
        let mut s = mgr();
        s.add_principal("bob", &["teller"]);
        assert!(s.has_role("bob", "teller"));
        assert!(!s.has_role("bob", "customer"));
    }
}
