"""Analysis of functions on surfaces: diffeomorphic registration of
geometry and function, principal component analysis of both variability
types, and their co-variation."""

from .covariation import (BartlettTest, CcaResult, bartlett_test, cca,
                          covariation_sequence, regression_coefficients)
from .demons import (DemonsConfig, DemonsResult, SurfaceProjector, VertexMap,
                     gradient_operator, groupwise_template,
                     register_functions, surface_gradient, vertex_gradient)
from .fpca import (FunctionalFpca, GeometricFpca, consistent_mass,
                   cotangent_stiffness, cross_validate_lambda,
                   functional_fpca, geometric_fpca)
from .georeg import (Diagnostics, RegistrationConfig, pull_back_function,
                     register_geometry)
from .kernels import GaussianKernel, default_deformation_kernel
from .lddmm import (GeodesicPath, InitialMomenta, ShootingError, flow_points,
                    shoot, shoot_gradient)
from .mesh import (MeshError, ScalarField, TriangleMesh, load_mesh,
                   lumped_mass, save_mesh)
from .pipeline import (ArtifactError, ConfigError, PipelineConfig,
                       emit_covariation, emit_mode_visualization, run_pipeline)
from .similarity import SimilarityResult
from .synthdata import (SimDataset, SimModes, SimSpec, c_shape_images,
                        ellipsoid_patch, generate_dataset, icosphere,
                        make_modes, make_template, refine_mesh)
from .tangent_fem import (Connection, FemError, TangentFrameAtlas,
                          apply_dirichlet, assemble_connection_matrices,
                          build_frames, build_system, connection,
                          solve_update)

__version__ = "0.1.0"
