//! The one seam of the serving protocol: a [`Service`] takes one
//! [`Request`] and returns one [`Response`]. [`crate::ServeHandle`], the TCP
//! [`crate::Client`] and the routing tier's handle implement it, a router
//! reaches each backend through one, and [`respond`] — the one frame
//! handler — answers every request frame of both tiers' listeners.

use dsig_obs::{trace, Counter};

use crate::error::Result;
use crate::proto::{decode_any_request, decode_request_context, encode_decode_error, Request, Response};

/// Anything that answers the serving protocol: a request in, a reply of the
/// request's [`crate::proto::Family`] out, or an explicit error.
pub trait Service: Send + Sync {
    /// Answers one request.
    ///
    /// # Errors
    /// Returns the [`crate::ServeError`] that failed the request; a frame
    /// handler sends it back under [`crate::ServeError::code`].
    fn call(&self, request: Request<'_>) -> Result<Response>;
}

/// Answers one request payload through `service`: the request runs under
/// its caller's trace context, and its reply — or its error under
/// [`crate::ServeError::code`] — is encoded in the request's family. A
/// payload that does not decode is answered with a `BadRequest` error in
/// the family its magic names, and counted in `decode_errors` when given.
pub fn respond(service: &dyn Service, payload: &[u8], decode_errors: Option<&Counter>) -> Vec<u8> {
    // Pin the caller's trace context for the whole request so every span
    // opened while answering it parents under the remote caller — per
    // request, because pool workers interleave requests from many callers.
    let _ctx = trace::with_context(decode_request_context(payload));
    match decode_any_request(payload) {
        Ok(request) => {
            let family = request.family();
            match service.call(request) {
                Ok(response) => response.encode(),
                Err(err) => family.error(err.code(), err.to_string()),
            }
        }
        Err(err) => {
            if let Some(counter) = decode_errors {
                counter.inc();
            }
            encode_decode_error(payload, err.to_string())
        }
    }
}
