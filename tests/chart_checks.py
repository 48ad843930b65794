"""Chart and frame checks shared by the geometry and submanifold tests,
and the model-space constructor the tests share."""

import numpy as np

from otsobolev import geometry


def model_space(variant: str, dim: int,
                curvature: float = None) -> geometry.ModelManifold:
    """The model space ``variant`` of dimension ``dim``; the curvature
    defaults to the variant's sign of K (0, 1 or -1)."""
    if curvature is None:
        curvature = geometry.SPACE_FORMS[variant].sign
    return geometry.ModelManifold(variant, dim, curvature)


def check_point(M: geometry.ModelManifold, x: np.ndarray,
                tol: float = 1e-12) -> None:
    """Assert embedding-chart normalization of a point."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != M.embedding_dim:
        raise ValueError("wrong embedding dimension")
    if M.variant == geometry.SPHERE:
        r = abs(np.linalg.norm(x) - M.radius)
        if r > tol * max(1.0, M.radius):
            raise ValueError(f"sphere point off chart by {r:.2e}")
    elif M.variant == geometry.HYPERBOLIC:
        r = abs(geometry.metric_inner(M, x, x) + M.radius**2)
        if r > 1e-10 * max(1.0, M.radius**2) or x[..., 0] <= 0:
            raise ValueError("hyperboloid normalization violated")


def parallel_frame_gram_residual(frame: geometry.ParallelFrame) -> float:
    """Worst deviation of the frame Gram matrix from the identity."""
    M = frame.manifold
    worst = 0.0
    for k in range(len(frame.times)):
        V = frame.vectors[k]
        G = geometry.metric_inner(M, V[:, None, :], V[None, :, :])
        worst = max(worst, float(np.abs(G - np.eye(V.shape[0])).max()))
    return worst


def mesh_frame_gram_residual(mesh) -> float:
    """Worst deviation of the combined tangent and normal frame Gram
    matrices of a ``submanifold.SubmanifoldMesh`` from the identity."""
    frames = np.concatenate([mesh.tangent_frames, mesh.normal_frames], axis=1)
    g = np.einsum("nad,nbd->nab", geometry.lower_index(mesh.manifold, frames),
                  frames)
    eye = np.eye(mesh.n + mesh.m)
    return float(np.abs(g - eye).max())
