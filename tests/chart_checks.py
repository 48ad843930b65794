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


def parallel_frame_gram_residual(M: geometry.ModelManifold,
                                 vectors: np.ndarray) -> float:
    """Worst deviation from the identity of the Gram matrices of the
    (T, d, D) frames ``vectors`` of ``geometry.build_parallel_frame``."""
    g = np.einsum("tad,tbd->tab", geometry.lower_index(M, vectors), vectors)
    return float(np.abs(g - np.eye(vectors.shape[1])).max())


def mesh_frame_gram_residual(mesh) -> float:
    """Worst deviation of the combined tangent and normal frame Gram
    matrices of a ``submanifold.SubmanifoldMesh`` from the identity."""
    frames = np.concatenate([mesh.tangent_frames, mesh.normal_frames], axis=1)
    g = np.einsum("nad,nbd->nab", geometry.lower_index(mesh.manifold, frames),
                  frames)
    eye = np.eye(mesh.n + mesh.m)
    return float(np.abs(g - eye).max())
