//! The security/authentication handler: two-level authentication with
//! per user-application access control lists (§4.1, §5.2.2).
//!
//! Level 1 authorizes access to the *server*: per the paper, "a client has
//! access only to those servers where he is a registered user — i.e. he is
//! on the authorized user list for at least one of the applications
//! registered with the server". Level 2 authorizes access to a specific
//! *application* and yields a privilege-filtered interaction interface.
//!
//! Substitution note: the paper runs over an SSL-secured server with
//! customizable ACLs. We reproduce the ACL semantics exactly; transport
//! security is reduced to a shared-secret convention
//! ([`expected_password`]) plus a simulated handshake cost in the server's
//! cost model — the evaluation never measures cryptography itself.

use wire::{AppCommand, AppOp, ErrorCode, InteractionSpec, Privilege, UserId, WireError};

/// The shared-secret convention standing in for SSL client certificates:
/// user `u` authenticates with `secret-u`.
pub fn expected_password(user: &UserId) -> String {
    format!("secret-{}", user.as_str())
}

/// Check the level-1 credential pair itself (password convention).
pub fn credentials_valid(user: &UserId, password: &str) -> bool {
    password == expected_password(user)
}

/// Level-2 authorization: may `user` (holding `privilege`) perform `op`?
/// Mutating ops additionally require the steering lock, which is checked
/// separately by the command path ([`ErrorCode::LockRequired`]).
pub fn authorize_op(privilege: Privilege, op: &AppOp) -> Result<(), WireError> {
    let required = op.required_privilege();
    if privilege.allows(required) {
        Ok(())
    } else {
        Err(WireError::new(
            ErrorCode::AccessDenied,
            format!("operation requires {required:?}, user holds {privilege:?}"),
        ))
    }
}

/// Derive the "customized interaction/steering interface ... based on the
/// client's access privileges": read-only users see sensors and current
/// parameter values but no commands; read-write users additionally steer
/// parameters; only steer-privileged users see lifecycle commands.
pub fn filter_interface(spec: &InteractionSpec, privilege: Privilege) -> InteractionSpec {
    let commands: Vec<AppCommand> =
        if privilege.allows(Privilege::Steer) { spec.commands.clone() } else { Vec::new() };
    InteractionSpec { params: spec.params.clone(), sensors: spec.sensors.clone(), commands }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::Value;

    #[test]
    fn password_convention() {
        let u = UserId::new("vijay");
        assert!(credentials_valid(&u, "secret-vijay"));
        assert!(!credentials_valid(&u, "secret-manish"));
        assert!(!credentials_valid(&u, ""));
    }

    #[test]
    fn op_authorization_matrix() {
        let read = AppOp::GetSensors;
        let write = AppOp::SetParam("x".into(), Value::Int(1));
        let steer = AppOp::Command(AppCommand::Pause);
        assert!(authorize_op(Privilege::ReadOnly, &read).is_ok());
        assert!(authorize_op(Privilege::ReadOnly, &write).is_err());
        assert!(authorize_op(Privilege::ReadOnly, &steer).is_err());
        assert!(authorize_op(Privilege::ReadWrite, &write).is_ok());
        assert!(authorize_op(Privilege::ReadWrite, &steer).is_err());
        assert!(authorize_op(Privilege::Steer, &steer).is_ok());
        let err = authorize_op(Privilege::ReadOnly, &write).unwrap_err();
        assert_eq!(err.code, ErrorCode::AccessDenied);
    }

    #[test]
    fn interface_filtering() {
        let spec = InteractionSpec {
            params: vec![("p".into(), "float".into(), Value::Float(1.0))],
            sensors: vec!["s".into()],
            commands: vec![AppCommand::Pause, AppCommand::Resume],
        };
        let ro = filter_interface(&spec, Privilege::ReadOnly);
        assert_eq!(ro.params.len(), 1);
        assert_eq!(ro.sensors.len(), 1);
        assert!(ro.commands.is_empty());
        let rw = filter_interface(&spec, Privilege::ReadWrite);
        assert!(rw.commands.is_empty());
        let st = filter_interface(&spec, Privilege::Steer);
        assert_eq!(st.commands.len(), 2);
    }
}
